#!/usr/bin/env bash
# Local gate, mirroring .github/workflows/ci.yml step for step: the
# repo-invariant lint (src/repro, which includes the src/repro/engine
# package), the whole-program project analysis (determinism /
# parallel-safety / unit rules over the project graph), the analyzer's
# own test suites, the API surface snapshot (docs/API.md vs the live
# surface), the construction-, sampling- and pricing-equivalence suites,
# the engine test suite, the chaos suite, the serving suites in asyncio
# dev mode, a cross-process warm replay, a cross-process
# serial-vs-pooled replay and a trace-validated cold run of all 17
# experiments, the cluster experiments, the
# dynamic re-balancing experiments (ext-dynamic and ablation-dynamic),
# every example, then the full tier-1 test suite.
# Run from the repository root:
#
#     tools/check.sh            # lint + project analysis + tests
#     tools/check.sh --lint-only
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== repro.analysis lint (src/repro, incl. src/repro/engine) =="
test -d src/repro/engine  # the engine package must exist and be linted
python -m repro.analysis lint src/repro

echo
echo "== repro.analysis project analysis (whole-program DET/PAR/UNIT-X) =="
python -m repro.analysis --project src/repro

if [[ "${1:-}" == "--lint-only" ]]; then
    exit 0
fi

echo
echo "== analyzer tests =="
python -m pytest -x -q \
    tests/test_analysis_lint.py \
    tests/test_analysis_project.py \
    tests/test_analysis_cli.py \
    tests/test_analysis_hazards.py

echo
echo "== API surface snapshot (docs/API.md) =="
python -m pytest -x -q tests/test_api_surface.py

echo
echo "== construction, sampling and pricing equivalence (packed from_coo, O(nnz) CSR check, upper-triangle graphs, stamp estimate, subgraph runs, round-block slices, degree-prefix weights, column position map, work counts, hh events) =="
python -m pytest -x -q \
    tests/test_construction_equivalence.py \
    tests/test_sampling_equivalence.py \
    tests/test_pricing_equivalence.py

echo
echo "== engine tests =="
python -m pytest -x -q \
    tests/test_engine_parallel.py \
    tests/test_engine_cache.py \
    tests/test_engine_determinism.py \
    perfbench/tests

echo
echo "== chaos tests (fault injection) =="
python -m pytest -x -q tests/test_engine_faults.py

echo
echo "== serving tests (asyncio dev mode) =="
python -X dev -m pytest -x -q \
    -W error::ResourceWarning \
    -W error::pytest.PytestUnraisableExceptionWarning \
    tests/test_serve.py \
    tests/test_engine_locks.py

echo
echo "== warm replay (cross-process, all experiments) =="
warm_tmp="$(mktemp -d)"
trap 'rm -rf "$warm_tmp"' EXIT
for run in 1 2; do
    python -m repro.experiments --scale 0.015625 \
        --cache-dir "$warm_tmp/warm" > "$warm_tmp/run$run.txt"
done
grep -q "engine summary: .* 0 miss(es)" "$warm_tmp/run2.txt"
if grep "regenerated in .* 0 hit(s)" "$warm_tmp/run2.txt"; then
    exit 1
fi
diff <(grep -v -e "regenerated in" -e "engine summary" "$warm_tmp/run1.txt") \
     <(grep -v -e "regenerated in" -e "engine summary" "$warm_tmp/run2.txt")

echo
echo "== pooled replay (cross-process, all experiments) =="
for workers in 1 2; do
    python -m repro.experiments --no-cache --scale 0.015625 \
        --workers "$workers" \
        > "$warm_tmp/pooled$workers.txt" 2> "$warm_tmp/pooled$workers.err"
done
test ! -s "$warm_tmp/pooled2.err"
diff <(grep -v -e "regenerated in" -e "engine summary" "$warm_tmp/pooled1.txt") \
     <(grep -v -e "regenerated in" -e "engine summary" "$warm_tmp/pooled2.txt")

echo
echo "== trace validation (all experiments; exit 0, empty stderr) =="
python -m repro.experiments --no-cache --scale 0.015625 \
    --validate-traces > /dev/null 2> "$warm_tmp/validate.err"
if [[ -s "$warm_tmp/validate.err" ]]; then
    cat "$warm_tmp/validate.err" >&2
    exit 1
fi

echo
echo "== cluster experiments (docs/CLUSTER.md) =="
python -m pytest -x -q tests/test_platform_cluster.py
python -m repro.experiments ext-cluster --scale 0.02 --no-cache

echo
echo "== dynamic re-balancing experiments (empty stderr) =="
python -m pytest -x -q tests/test_hetero_dynamic_rebalance.py
for exp in ext-dynamic ablation-dynamic; do
    python -m repro.experiments "$exp" --scale 0.0625 --no-cache \
        2> "$warm_tmp/$exp.err"
    if [[ -s "$warm_tmp/$exp.err" ]]; then
        cat "$warm_tmp/$exp.err" >&2
        exit 1
    fi
done

echo
echo "== examples (exit 0, empty stderr) =="
for example in examples/*.py; do
    echo "-- $example"
    python "$example" > /dev/null 2> "$warm_tmp/example.err"
    if [[ -s "$warm_tmp/example.err" ]]; then
        cat "$warm_tmp/example.err" >&2
        exit 1
    fi
done

echo
echo "== tier-1 tests =="
python -m pytest -x -q
