"""Record the outputs that run.py checks at each workload's default seed.

    python3 perfbench/record_reference.py

Run it once, at the commit whose outputs define "correct"; later commits must
reproduce them to a relative 1e-10. Writes perfbench/reference/<workload>.json.
"""

import json
import sys
import tempfile
from pathlib import Path

import run  # pins the BLAS threads before numpy is imported

REFERENCED = ("mc_n1000", "mc_n16000", "stacked_estimate")


def main():
    sys.path.insert(0, str(run.ROOT / "src"))
    from tobitiv import cli

    import tracing
    import workloads

    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    run.WORK_ROOT.mkdir(exist_ok=True)
    tracer = tracing.Tracer(enabled=False)
    for name in REFERENCED:
        seed = workloads.DEFAULT_SEEDS[name]
        with tempfile.TemporaryDirectory(dir=run.WORK_ROOT) as tmp:
            workload = workloads.make(name, Path(tmp), seed)
            workload.generate(tracer)
            calls = run.run_unit(cli, workload, tracer, 0)[1]
        path = workloads.REFERENCE_DIR / f"{name}.json"
        path.write_text(json.dumps({"workload": name, "seed": seed, "calls": calls},
                                   indent=1) + "\n")
        print(f"wrote {path.relative_to(run.ROOT)}")


if __name__ == "__main__":
    main()
