"""Seeded violation: an event kind nobody emits (OBS001).

``Ev.PING`` has an emission site; ``Ev.PONG`` is declared in the schema
but no probe anywhere in the tree emits it, so exporters and collectors
carry a dead entry.
"""


class Ev:
    PING = 1
    PONG = 2


class Probe:
    def probe(self, now):
        self.obs.emit((Ev.PING, now, self.sm_id))
