import gc
import sys

from .cli import main

code = main()
# Every file is closed by now and the process is about to exit: freezing the
# live objects keeps the interpreter's final collection from traversing them.
gc.freeze()
sys.exit(code)
