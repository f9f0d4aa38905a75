__version__ = "0.8.0"
