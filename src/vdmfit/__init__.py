"""vdmfit: fit vulnerability discovery models to cumulative vulnerability
counts, test goodness-of-fit, and track fit stability and quality over a
release's lifetime."""

__version__ = "0.1.0"
