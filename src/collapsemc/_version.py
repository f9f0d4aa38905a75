__version__ = "0.5.0"
