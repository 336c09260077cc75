"""The benchmark's workloads: generated configs, CLI calls and output gates.

A workload seed picks the disorder seeds; the program sees only the generated
config and ``--seed``.  Workload seed 0 reproduces the shipped configs'
disorder seed, and on it the key scalars must match ``reference.json``.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

BASE_SEED = 20240811  # disorder.seed of both shipped configs
SEED_STRIDE = 1000
REL_TOL = 1e-10  # key scalars against the reference and against earlier passes
EVEN_TOL = 1e-12  # mirror evenness of the binned measure, relative to its largest bin


@dataclass(frozen=True)
class Workload:
    name: str
    source: str            # shipped config, relative to the checkout root
    commands: tuple        # subcommand plus its own flags; calls() adds the rest
    threads: int
    seed_cycle: int = 1    # pass k runs disorder seed index k % seed_cycle
    lattice: dict | None = None
    realizations: int | None = None

    def write_config(self, root: Path, work: Path) -> Path:
        """The generated config the program sees, written under ``work``."""
        config = json.loads((root / self.source).read_text(encoding="utf-8"))
        if self.lattice is not None:
            config["lattice"] = dict(self.lattice)
        if self.realizations is not None:
            config["ensemble"]["realizations"] = self.realizations
        config["output"]["directory"] = str(work / "default-out")
        path = work / f"{self.name}.json"
        path.write_text(json.dumps(config, indent=2), encoding="utf-8")
        return path

    def realizations_per_pass(self, config: dict) -> int:
        n = config["ensemble"]["realizations"]
        total = 0
        for command in self.commands:
            if command[0] == "absorb":
                total += 1  # absorb diagonalizes realization 0 only
            elif command == ("sweep", "--axis", "disorder"):
                total += n * len(config["sweeps"]["disorder"])
            else:
                total += n
        return total

    def verify_realizations(self, config: dict) -> int:
        return config["ensemble"]["realizations"] if ("verify",) in self.commands else 0

    def calls(self, config_path: Path, out_dir: Path, seed: int, index: int) -> list:
        """The argv lists of one pass."""
        common = ["--config", str(config_path), "--out", str(out_dir),
                  "--threads", str(self.threads),
                  "--seed", str(disorder_seed(seed, index % self.seed_cycle))]
        return [[command[0], *common, *command[1:]] for command in self.commands]


# Why each workload exists is stated next to its name in BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload(
        name="sigma-d3",
        source="configs/verify_periodic.json",
        lattice={"dimension": 3, "linear_size": 12, "boundary": "periodic"},
        realizations=2,  # a pass of about 4 s, so one run holds several passes
        commands=(("sigma",),),
        threads=1,
    ),
    Workload(
        name="absorb-d1",
        source="configs/verify_dirichlet.json",
        commands=(("absorb",),),
        threads=1,
    ),
    Workload(
        name="battery-d1",
        source="configs/verify_periodic.json",
        commands=(("verify",), ("sweep", "--axis", "temperature"),
                  ("sweep", "--axis", "disorder"), ("sigma",)),
        threads=2,
        seed_cycle=3,
    ),
)}


def disorder_seed(workload_seed: int, index: int) -> int:
    return (BASE_SEED + SEED_STRIDE * workload_seed + index) % 2 ** 64


# -- gates -----------------------------------------------------------------

def _read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _read_csv(path: Path) -> list:
    with path.open(newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def _sigma(out: Path):
    failures = []
    rows = _read_csv(out / "sigma.csv")
    header = _read_json(out / "sigma.json")
    mass = [float(r["mass"]) for r in rows]
    if not mass:
        failures.append("sigma.csv has no bins")
    if any(m < 0 for m in mass):
        failures.append(f"negative bin mass {min(mass)!r}")
    scale = max(mass, default=0.0)
    odd = max((abs(a - b) for a, b in zip(mass, reversed(mass))), default=0.0)
    if odd > EVEN_TOL * scale:
        failures.append(f"bin masses not mirror-even: defect {odd!r}")
    scalars = {f"sigma.{key}": header["scalars"][key]["mean"]
               for key in ("sigma_total", "gamma_mass", "upsilon_total")}
    return failures, scalars


def _absorb(out: Path):
    failures = []
    header = _read_json(out / "absorb.json")
    with (out / "trace.csv").open(encoding="utf-8") as handle:
        if sum(1 for _ in handle) < 2:
            failures.append("trace.csv has no samples")
    w_lin, w_lr = header["w_lin"], header["w_lr"]
    rel = abs(w_lin - w_lr) / w_lr
    if not rel <= 0.05:
        failures.append(f"|W_lin - W_lr| / W_lr = {rel!r} above 0.05")
    # The oracle_energy gate: the smallest-alpha pair must scale quadratically.
    # Larger alphas carry quartic terms (3.77 at alpha 0.2 on some seeds).
    ratios = header["quadratic_ratios"]
    if not ratios or not 3.8 <= ratios[-1] <= 4.2:
        failures.append(f"smallest-pair W(2a)/W(a) {ratios[-1:]} outside [3.8, 4.2]")
    scalars = {f"absorb.{key}": header[key]
               for key in ("w_lin", "w_lr", "w_current", "w_energy")}
    return failures, scalars


def _verify(out: Path):
    report = _read_json(out / "verify.json")["report"]
    failed = [c["name"] for c in report["checks"] if c["status"] == "fail"]
    failures = [f"verify checks failed: {failed}"] if failed or not report["passed"] else []
    return failures, {}


def _sweep(out: Path, axis: str):
    header = _read_json(out / f"sweep_{axis}.json")
    rows = _read_csv(out / f"sweep_{axis}.csv")
    false = [k for k, v in header["assertions"].items() if v is False]
    failures = [f"sweep_{axis} assertions false: {false}"] if false else []
    if not rows:
        failures.append(f"sweep_{axis}.csv has no rows")
    scalars = {f"sweep_{axis}.sigma_total_mean.{i}": float(r["sigma_total_mean"])
               for i, r in enumerate(rows)}
    if axis == "disorder":
        scalars["sweep_disorder.loglog_slope"] = header["meta"]["loglog_slope"]
    return failures, scalars


def check_call(argv: list, out: Path, exit_code: int):
    """Failures and key scalars of one CLI call, read back from its artifacts."""
    if exit_code != 0:
        return [f"{argv[0]} exited {exit_code}"], {}
    try:
        if argv[0] == "sigma":
            return _sigma(out)
        if argv[0] == "absorb":
            return _absorb(out)
        if argv[0] == "verify":
            return _verify(out)
        return _sweep(out, argv[argv.index("--axis") + 1])
    except (OSError, KeyError, ValueError, TypeError, ZeroDivisionError) as exc:
        return [f"{argv[0]} artifacts unreadable: {exc!r}"], {}


def mismatches(scalars: dict, expected: dict) -> list:
    """Scalars that differ from their ``expected`` value by more than REL_TOL relative."""
    bad = []
    for key, got in scalars.items():
        want = expected.get(key)
        if want is not None and abs(got - want) > REL_TOL * max(abs(got), abs(want)):
            bad.append(f"{key}: {got!r} != {want!r}")
    return bad
