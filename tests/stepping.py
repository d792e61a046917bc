"""The reference run loop the tests compare ``solve()`` against.

A hand-built engine advanced by the plain ``initialize(); step() x N``
sequence of the :class:`repro.solve.Solver` protocol, with no checkpoint,
pool, cache or observer in between.  It is the independent reference for
the determinism contract (``solve()`` = stepping loop, pooled = serial,
resumed = uninterrupted, cached = uncached), and the way tests drive engines
they need to inspect or rewire (islands, immigration) between generations.
"""


def stepped(engine, generations):
    """Initialize ``engine``, step it ``generations`` times and return it."""
    engine.initialize()
    for _ in range(generations):
        engine.step()
    return engine
