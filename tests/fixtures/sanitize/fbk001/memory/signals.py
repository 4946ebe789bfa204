"""Seeded violation: a signal kind nobody publishes (FBK001).

``Sig.EVICT`` has a publish site; ``Sig.FILL`` is declared in the schema
but no cache anywhere in the tree publishes it, so a scheduler
subscribing to it is silently starved of its input.
"""


class Sig:
    EVICT = 1
    FILL = 2


class Cache:
    def _evict(self, line, req):
        self.fb.publish((Sig.EVICT, self.now, self.fb_owner))
