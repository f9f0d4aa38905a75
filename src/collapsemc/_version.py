__version__ = "0.3.0"
