"""``python -m pulseg2``: the same command line as the ``pulseg2`` script."""

from .cli import entrypoint

if __name__ == "__main__":
    entrypoint()
