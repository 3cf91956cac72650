"""``python -m hnn_nearring``: the ``hnn-nearring`` command line."""

from .cli_io import main

if __name__ == "__main__":
    main()
