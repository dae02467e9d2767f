"""Setup shared by every test module.

When a property test fails, hypothesis's pytest plugin imports
hypothesis.extra._patching to write the failing example as a patch.  That
module imports libcst, and the import raises mypy_extensions'
DeprecationWarning, which the suite's warnings-as-errors setting turns into
an error inside the plugin's report hook: pytest then ends the whole run
with INTERNALERROR.  Importing the module once here, with DeprecationWarning
ignored for that import alone, leaves it cached for the report; every other
warning stays an error.  Without libcst the import fails and hypothesis
skips the patch.
"""
import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
