"""Fixed coverage for the derandomized property tests.

Hypothesis mixes the literal constants of the loaded library modules into
its draws, even derandomized, so the draws move whenever such a constant
changes; only ``@example``s stay put.  Each property test therefore also
runs, as ``@example``s, the cases its derandomized draws reached when they
were recorded.  Hypothesis reads no constants from the test modules, so the
recorded rows themselves move no draw.
"""

from hypothesis import example


def pinned(names: str, draws):
    """The rows of ``draws`` as ``@example``s, their entries named by the
    comma-separated ``names``."""
    keys = [name.strip() for name in names.split(",")]

    def apply(test):
        for row in draws:
            test = example(**dict(zip(keys, row, strict=True)))(test)
        return test
    return apply
