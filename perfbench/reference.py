"""A fixed pure-Python loop, timed to measure how fast the CPU runs now.

On a machine shared with other work the CPU's speed changes with that work,
from one tenth of a second to the next and from one minute to the next.  The
benchmark times this loop alongside its tasks and scales the tasks' times to
one reference speed.  The loop reads a list of float objects, as the
package's loops over grids and series terms do: a loop over one float alone
slowed less than the package's tasks when the machine was busy, and left
the scaled times rising with the load.  It uses nothing from pdem or numpy,
so no change to the package changes its time.
"""

from time import process_time

# Distinct float objects, about 0.6 MB with the list.
_VALUES = [float(i) for i in range(20000)]
# The scaled times are those of a CPU on which one pass takes this long: about
# the fastest pass on an otherwise idle 2-core x86-64 virtual machine.  Any
# fixed value would do, since a change is judged against its parent at one
# scale.
REFERENCE_S = 5e-4


def reference_seconds():
    """CPU seconds of one pass of the loop."""
    t0 = process_time()
    total = 0.0
    for value in _VALUES:
        total += value * 0.5
    return process_time() - t0
