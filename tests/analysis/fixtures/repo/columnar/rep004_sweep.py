"""REP004 column-entry-point fixture: a sweep must reach the meter."""


class Processor:
    def run_unmetered(self, x, y):
        raw, stats = self._kernel(x, y)
        return raw

    def run_metered(self, x, y):
        raw, stats = self._kernel(x, y)
        self._absorb(stats)
        return raw
