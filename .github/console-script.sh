#!/usr/bin/env bash
# Runs the installed `negabench` console script through each subcommand and
# checks the exit codes of the refused inputs; it writes rec.json,
# rec24.json, orbit.json, nested.json, flipped.json and flipped-report.json
# to the working directory.  Every CI matrix job runs it after
# `pip install -e ".[test]"`: bash .github/console-script.sh
set -euo pipefail

negabench repro-examples
negabench table1 --k 2
negabench su-check
negabench orbits --n 8 > /dev/null
negabench lemma-check --set S3 --k 4 --gamma 10110100 --eset B
negabench lemma-check --set S2 --k 1 --gamma 0000 --gamma 1000
negabench verify --family G4K --k 3 --gamma 000111 --gamma 101010
negabench spectrum --family H4K2 --k 1 --gamma 10 --eset 0 --kind both
negabench anf --family G4K --k 3 --gamma 000111 --gamma 101010
# n = 20: the Moebius transform on 64-bit words at scale
negabench anf --family G4K --k 5 --gamma 1101001110 --gamma 0010110001 > /dev/null
negabench gen --family H4K2 --k 1 --gamma 10 --eset B --out rec.json
negabench verify --in rec.json
negabench dual --in rec.json
negabench spectrum --in rec.json --kind both
# n = 24, the advertised capacity, each command in a fresh process: the base's
# spectra come from the GF(2) rule there too
negabench gen --family G4K --k 6 --gamma 000111000111 --gamma 101010101010 --out rec24.json
negabench verify --in rec24.json > /dev/null
rc=0; negabench verify --in rec.json --k 1 || rc=$?; test "$rc" -eq 4
rc=0; negabench dual --in rec.json --family G8K --gamma 1 || rc=$?; test "$rc" -eq 4
# a spec beyond --max-n is refused up front, and an unknown flag is a usage error
rc=0; negabench --max-n 8 gen --family G4K --k 3 --gamma 000111 || rc=$?; test "$rc" -eq 3
rc=0; negabench gen --bogus || rc=$?; test "$rc" -eq 2
rc=0; negabench lemma-check --set S2 --k 1 --gamma 0000 --gamma 0011 || rc=$?; test "$rc" -eq 4
negabench gen --family F2RS_ORBIT --k 1 --gamma 11 --out orbit.json
sed -i 's/"gamma":"11"/"gamma":"10"/' orbit.json
rc=0; negabench verify --in orbit.json || rc=$?; test "$rc" -eq 5
# a record nested 100,000 arrays deep is a malformed file, not a traceback
python3 -c 'print("[" * 100000)' > nested.json
rc=0; negabench verify --in nested.json || rc=$?; test "$rc" -eq 5
# one flipped tt_hex digit fails verify, and every failing check names a counterexample
python3 -c '
import json
rec = json.load(open("rec.json"))
rec["tt_hex"] = ("1" if rec["tt_hex"][0] != "1" else "2") + rec["tt_hex"][1:]
json.dump(rec, open("flipped.json", "w"))'
rc=0; negabench verify --in flipped.json --format json > flipped-report.json || rc=$?
test "$rc" -eq 1
python3 -c '
import json, sys
failed = [c for c in json.load(open("flipped-report.json"))["checks"] if not c["passed"]]
sys.exit(not failed or not all(c.get("counterexample") for c in failed))'
