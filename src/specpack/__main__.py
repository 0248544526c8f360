import sys

from .cli import run

sys.exit(run())  # main(), then gc.freeze(); atexit and flushing still run
