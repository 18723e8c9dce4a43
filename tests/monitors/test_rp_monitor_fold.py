"""The RP monitor's host work per sample is the new records only.

Every sample still re-reads the whole profile log (the simulated cost of
Fig 11), but the summary is a running fold: over a whole DDMD run each
profile record is folded exactly once.  Counted, not timed, so a return
to re-folding the history every sample fails deterministically.
"""

from repro.experiments import run_ddmd_experiment, tuning_experiment
from repro.monitors.rp_monitor import ProfileFold
from repro.rp.profiler import ProfileStore


def test_each_profile_record_is_folded_once(monkeypatch):
    reads: list[tuple[int, int]] = []
    folded: list[int] = []
    read_since, fold = ProfileStore.read_since, ProfileFold.fold

    def counted_read(self, cursor):
        records, end = yield from read_since(self, cursor)
        reads.append((len(records), len(self)))
        return records, end

    def counted_fold(self, records):
        records = list(records)
        folded.append(len(records))
        return fold(self, records)

    monkeypatch.setattr(ProfileStore, "read_since", counted_read)
    monkeypatch.setattr(ProfileFold, "fold", counted_fold)
    result = run_ddmd_experiment(tuning_experiment(), seed=7)

    monitor = result.deployment.rp_monitor_model
    assert monitor.samples == len(reads) == len(folded) > 10
    # The simulated re-parse still reads the whole log every sample...
    assert all(length == size for length, size in reads)
    # ...while the host folds every record once, by the last sample.
    last_read = reads[-1][0]
    assert sum(folded) == monitor.fold.folded == last_read
    assert last_read <= len(result.session.profiles)
