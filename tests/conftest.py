"""Session set-up shared by the test modules."""

import warnings

with warnings.catch_warnings():
    # Hypothesis writes a failing example's report through libcst, whose
    # import raises a DeprecationWarning, an error under this suite's
    # filter that would end the session; it is imported here instead.
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
