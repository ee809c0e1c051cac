"""`python -m randpipe`: the same command line as the `randpipe` script."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
