"""Process entry of ``python -m secquery`` and of the ``secquery`` console script."""

import gc
import sys

from .cli import main


def run() -> None:
    """Run the command line, then exit the process with ``main``'s code.

    Every import is done by now, so ``gc.freeze`` moves the objects they made
    out of the collector's reach: neither the command's own collections nor
    the interpreter's final ones walk them.  It is called here and not in
    ``main``, which a caller may run in process.
    """
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    run()
