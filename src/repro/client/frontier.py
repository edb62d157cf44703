"""Empty placeholders for two deleted queue backends.

Every search queues on its own walk stack or on the arrival heap
(:mod:`repro.client.arrival_queue`).  ``perfbench/spans.py`` enumerates
the public methods of both classes below for its ``queue`` layer; they
have none, so that layer records no calls.
"""


class ArrivalFrontier:
    """Empty placeholder for the deleted kernel-backed step queue."""


class FrontierArena:
    """Empty placeholder for a deleted columnar frontier backend."""
