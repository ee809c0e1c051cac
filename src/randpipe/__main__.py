"""`python -m randpipe`: the same command line as the `randpipe` script."""

from .cli import entry

if __name__ == "__main__":
    entry()
