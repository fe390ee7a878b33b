"""The benchmark's workloads: which `invbases compute` jobs one pass runs.

Every job completes one system under one division with the degrevlex
ordering.  Why each workload exists, with the profile shares it was chosen
from, is in README.md next to this file.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

ORDER = "degrevlex"
REFERENCES = Path(__file__).resolve().parent / "references.json"


@dataclass(frozen=True)
class Job:
    system: str
    division: str
    verify: bool = False

    @property
    def key(self) -> str:
        """Reference key: the minimal basis heads depend on exactly these."""
        return "%s/%s/%s" % (self.system, self.division, ORDER)

    def argv(self, seed: int) -> list[str]:
        """The `invbases` command line a user would type for this job."""
        argv = [
            "compute",
            "--system", self.system,
            "--division", self.division,
            "--order", ORDER,
            "--stats", "json",
        ]
        if self.verify:
            argv += ["--verify", "--seed", str(seed)]
        return argv


WORKLOADS: dict[str, tuple[Job, ...]] = {
    "janet-loop": tuple(
        Job(s, "janet") for s in ("cyclic5", "katsura5", "trinks", "weispfenning94")
    ),
    "janet-reduce": (Job("katsura6", "janet"),),
    "alex-deflect": tuple(Job(s, "alex") for s in ("katsura4", "noon3")),
    "verify": tuple(Job(s, "janet", verify=True) for s in ("katsura4", "noon3", "cyclic5")),
}

# Counters read from `--stats json`, in report order.
STAT_COUNTERS = ("reds", "c1", "c2", "f5", "super", "polys_loop", "polys_min", "max_deg")
# Engine diagnostics only the traced run sees (`CompletionResult.diagnostics`).
DIAGNOSTICS = ("deflections", "sig_merges", "killed_q", "purged_t")


def all_jobs() -> list[Job]:
    """Every distinct job of every workload, for recording references."""
    seen: dict[str, Job] = {}
    for jobs in WORKLOADS.values():
        for job in jobs:
            seen.setdefault(job.key, job)
    return list(seen.values())


def load_references() -> dict:
    """Recorded heads, counters and diagnostics by job key (record_refs.py)."""
    return json.loads(REFERENCES.read_text())
