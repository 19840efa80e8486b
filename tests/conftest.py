"""Session setup shared by every test module.

pyproject.toml turns every warning into an error. When a Hypothesis test
fails, the Hypothesis plugin imports `hypothesis.extra._patching` to
report it, and that import warns "mypy_extensions.TypedDict is
deprecated"; raised as an error inside the plugin's hook, it would end
the session with an INTERNALERROR, print no falsifying example and run
no later test. Importing the module here, with that one warning ignored,
leaves it loaded for the plugin. The plugin skips the module when it
cannot be imported, and so does this.
"""

import warnings
from contextlib import suppress

with warnings.catch_warnings(), suppress(ImportError):
    warnings.filterwarnings(
        "ignore",
        message="mypy_extensions.TypedDict is deprecated",
        category=DeprecationWarning,
    )
    import hypothesis.extra._patching  # noqa: F401
