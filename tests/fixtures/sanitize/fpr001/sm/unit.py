"""Seeded violation: an unwaived excluded-field read on the timing path.

``events`` is on the exclusion list, so reading it from ``sm/`` without
a ``# sanitize: waive FPR001`` rationale must fire FPR001.  The
``num_sms`` read is fingerprinted and must stay silent.
"""


class Unit:
    def __init__(self, config):
        self.width = config.num_sms
        self.recording = config.events != "off"
