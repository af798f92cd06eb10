"""False-negative / false-positive accounting for the evaluation."""

from dataclasses import asdict, dataclass


@dataclass
class RateCounter:
    """Counts detector outcomes against ground truth."""

    positives: int = 0  # experiments where a common bottleneck exists
    negatives: int = 0  # experiments where none exists
    false_negatives: int = 0
    false_positives: int = 0

    def record(self, common_bottleneck_exists, detected):
        if common_bottleneck_exists:
            self.positives += 1
            if not detected:
                self.false_negatives += 1
        else:
            self.negatives += 1
            if detected:
                self.false_positives += 1

    @property
    def fn_rate(self):
        if self.positives == 0:
            return 0.0
        return self.false_negatives / self.positives

    @property
    def fp_rate(self):
        if self.negatives == 0:
            return 0.0
        return self.false_positives / self.negatives


def tally(keys, records, positive, detector="loss_trend"):
    """One detector's outcomes over detection records, grouped by key.

    ``keys`` holds one tuple per record; the result nests a
    :class:`RateCounter`'s fields by the tuple's parts, e.g. keys
    ``("netflix", "15")`` give ``table["netflix"]["15"]["positives"]``.
    ``positive`` is the ground truth of every record.  A positive record
    whose differentiation is not visible is counted nowhere: WeHe
    would not have flagged that test (the paper drops such runs).
    """
    counters = {}
    for key, record in zip(keys, records):
        counter = counters.setdefault(tuple(key), RateCounter())
        if positive and not record.differentiation_visible:
            continue
        counter.record(positive, record.verdicts[detector])
    table = {}
    for (*parents, leaf), counter in counters.items():
        node = table
        for part in parents:
            node = node.setdefault(part, {})
        node[leaf] = asdict(counter)
    return table
