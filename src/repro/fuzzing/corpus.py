"""The fuzzer corpus: interesting inputs and seed selection.

Admission policy per the paper: inputs that trigger *new model coverage*
always enter the corpus (and are emitted as test cases by the engine);
inputs whose **Iteration Difference Coverage** exceeds their parent's are
kept as interesting seeds for further mutation — this is what diversifies
execution paths across iterations instead of lingering on a few main
paths.

Selection is metric-weighted: higher-IDC entries are proportionally more
likely parents, with a freshness bonus for recently added entries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

__all__ = ["CorpusEntry", "Corpus"]


@dataclass
class CorpusEntry:
    """One corpus input with its bookkeeping."""

    data: bytes
    metric: int
    found_new: bool
    added_at: float
    iterations: int = 0
    selections: int = 0

    @property
    def density(self) -> float:
        """Iteration-difference metric per executed tuple.

        Weighting selection by density (not raw metric) keeps the corpus
        from drifting toward ever-longer inputs, which would inflate the
        metric without diversifying behaviour — the analogue of
        LibFuzzer's preference for small inputs.
        """
        return self.metric / (self.iterations + 1.0)


class Corpus:
    """Bounded set of interesting inputs with weighted selection."""

    def __init__(self, max_entries: int = 256):
        self.max_entries = max_entries
        self.entries: List[CorpusEntry] = []

    def __len__(self) -> int:
        return len(self.entries)

    @staticmethod
    def _strength(entry: CorpusEntry):
        return (entry.found_new, entry.metric, -entry.selections)

    def add(self, entry: CorpusEntry) -> Optional[CorpusEntry]:
        """Admit an entry, evicting the weakest seed when full.

        New-coverage finders are never evicted before metric-only entries;
        within a class, lowest metric goes first.  An entry strictly weaker
        than everything resident is *rejected up front* rather than added
        and immediately evicted — it was never selectable, so it must not
        count as an admission (the ``mutation_stats`` wins of its
        operators).  Returns the displaced entry: ``None``
        (admitted, nobody evicted), a resident entry (admitted, weakest
        resident evicted), or ``entry`` itself (rejected).
        """
        if len(self.entries) >= self.max_entries:
            victim = min(self.entries, key=self._strength)
            if self._strength(entry) < self._strength(victim):
                return entry  # rejected: weaker than every resident seed
            self.entries.remove(victim)
            self.entries.append(entry)
            return victim
        self.entries.append(entry)
        return None

    def select(self, rng, bump: bool = True) -> Optional[CorpusEntry]:
        """Pick a parent: metric-proportional with recency preference.

        ``bump=False`` leaves the entry's ``selections`` counter untouched —
        use it for auxiliary picks (e.g. crossover partners) so they don't
        look hotter than they are to the eviction policy in :meth:`add`.
        """
        if not self.entries:
            return None
        # favor the freshest quarter half the time (LibFuzzer-ish energy)
        if len(self.entries) >= 8 and rng.random() < 0.5:
            fresh = self.entries[-max(len(self.entries) // 4, 1):]
            pool = fresh
        else:
            pool = self.entries
        def weight(entry):
            # new-coverage finders get double energy, like LibFuzzer's
            # feature-rarity bias toward inputs that actually advanced
            # the frontier
            bonus = 2.0 if entry.found_new else 1.0
            return (entry.density + 1.0) * bonus

        total = sum(weight(e) for e in pool)
        pick = rng.random() * total
        acc = 0.0
        chosen = pool[-1]
        for entry in pool:
            acc += weight(entry)
            if pick <= acc:
                chosen = entry
                break
        if bump:
            chosen.selections += 1
        return chosen
