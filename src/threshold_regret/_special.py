"""The package's one scipy import site: three ``scipy.special`` ufuncs, imported on first call.

Importing ``scipy.special`` takes about 0.3 s, more than half of a fresh
``import threshold_regret.cli``, so the import waits until a function
below is first called.  Commands that never call one (``chernoff``,
``estimate --policy ewm``, ``infer --method plugin|bootstrap``) never load
scipy.  Each wrapper calls the ufunc itself, so results are bit-identical.
"""


def ndtr(x):
    """Standard normal CDF, ``scipy.special.ndtr``."""
    import scipy.special

    return scipy.special.ndtr(x)


def erfinv(y):
    """Inverse error function, ``scipy.special.erfinv``."""
    import scipy.special

    return scipy.special.erfinv(y)


def chndtrix(p, df, nc):
    """Noncentral chi-squared quantile, ``scipy.special.chndtrix``."""
    import scipy.special

    return scipy.special.chndtrix(p, df, nc)
