import gc
import sys

from .cli import main

status = main()
# main has closed every file it opened, so nothing of the import is left for
# the interpreter's last collections to finalise: freeze it, and they skip it.
# sys.stdout and sys.stderr are flushed at exit, frozen or not.
gc.freeze()
sys.exit(status)
