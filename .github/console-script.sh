#!/usr/bin/env bash
# Runs the installed `negabench` console script through each subcommand and
# checks the exit codes of the refused inputs.  Its records and reports go to
# a fresh temporary directory, and it fails if a refused command leaves
# refused.json there.  Every CI matrix job runs it after
# `pip install -e ".[test]"`: bash .github/console-script.sh
set -euo pipefail
cd "$(mktemp -d)"

negabench repro-examples
# the relation table at k = 2, cold in a fresh process: its sweeps classify
# stacks of tables, one stack of spectra live at a time.  It fails unless the
# report passes, if its checks' times sum above the report's (the lemma step's
# rule below), or above 64 MiB max RSS (39 MiB read on a 2-core x86 Linux host)
python3 - <<'PY'
import json, os, subprocess, sys
proc = subprocess.Popen(["negabench", "table1", "--k", "2", "--format", "json"],
                        stdout=subprocess.PIPE)
out = proc.stdout.read()
_, status, usage = os.wait4(proc.pid, 0)
rss = usage.ru_maxrss / 1024  # Linux: KiB
report = json.loads(out)
spent = sum(c["elapsed_ms"] for c in report["checks"])
# each time is rounded to 0.001 ms, so the sum may read up to 0.0005 ms a figure over
over = spent > report["elapsed_ms"] + 0.0005 * (len(report["checks"]) + 1)
print(f"table1 k=2: passed {report['passed']}, max RSS {rss:.0f} MiB (bound 64 MiB), "
      f"checks {spent:.1f} of {report['elapsed_ms']:.1f} ms")
sys.exit(bool(os.waitstatus_to_exitcode(status) or not report["passed"] or rss > 64 or over))
PY
negabench su-check
negabench orbits --n 8 > /dev/null
negabench lemma-check --set S3 --k 4 --gamma 10110100 --eset B
negabench lemma-check --set S2 --k 1 --gamma 0000 --gamma 1000
# n = 24 on g0, S1 k=6 and the pair-shaped S2 k=3, each cold in a fresh
# process: the lemma's base checks read the GF(2) rule's duals block by block.
# Its Walsh pass drops the 64 MiB masked Walsh spectrum before the nega pass
# takes the masked nega one: cold, max RSS read 121 MiB for S1 and 120 MiB for
# S2 on a 2-core x86 Linux host (186 MiB with both spectra live), so each fails
# above 150 MiB.  Each also fails if its checks' times sum above the report's:
# no work is charged twice
python3 - <<'PY'
import json, os, subprocess, sys
failed = False
for tag, k, gammas in (("S1", "6", ["000111000111", "101010101010"]),
                       ("S2", "3", ["000111000111"])):
    argv = ["negabench", "lemma-check", "--set", tag, "--k", k, "--format", "json"]
    proc = subprocess.Popen(argv + [a for g in gammas for a in ("--gamma", g)],
                            stdout=subprocess.PIPE)
    out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    rss = usage.ru_maxrss / 1024  # Linux: KiB
    report = json.loads(out)
    spent = sum(c["elapsed_ms"] for c in report["checks"])
    # each time is rounded to 0.001 ms, so the sum may read up to 0.0005 ms a figure over
    over = spent > report["elapsed_ms"] + 0.0005 * (len(report["checks"]) + 1)
    print(f"lemma-check {tag} k={k}: max RSS {rss:.0f} MiB (bound 150 MiB), "
          f"checks {spent:.1f} of {report['elapsed_ms']:.1f} ms")
    failed |= bool(os.waitstatus_to_exitcode(status) or rss > 150 or over)
sys.exit(failed)
PY
# n = 22 on h0: the base nega check reads the rule's W_g0 at every u and its mirror u'
negabench lemma-check --set S3 --k 5 --gamma 1101001110 --eset B
negabench verify --family G4K --k 3 --gamma 000111 --gamma 101010
# n = 12, the top n of the butterfly-matches-naive cross-check (the definitional
# sums at every point): the report must hold that check, passed
negabench verify --family G4K --k 3 --gamma 000111 --gamma 101010 --format json > g4k12-report.json
python3 - <<'PY'
import json, sys
checks = json.load(open("g4k12-report.json"))["checks"]
sys.exit(not any(c["name"] == "butterfly-matches-naive" and c["passed"] for c in checks))
PY
negabench spectrum --family H4K2 --k 1 --gamma 10 --eset 0 --kind both
negabench anf --family G4K --k 3 --gamma 000111 --gamma 101010
# n = 20: the Moebius transform on 64-bit words at scale
negabench anf --family G4K --k 5 --gamma 1101001110 --gamma 0010110001 > /dev/null
negabench gen --family H4K2 --k 1 --gamma 10 --eset B --out rec.json
negabench verify --in rec.json
negabench dual --in rec.json
negabench spectrum --in rec.json --kind both
# --out receives exactly the bytes stdout does
negabench spectrum --in rec.json --kind both --out spec.txt
negabench spectrum --in rec.json --kind both | cmp - spec.txt
# n = 24, the advertised capacity, each command in a fresh process: the base's
# spectra come from the GF(2) rule there too
negabench gen --family G4K --k 6 --gamma 000111000111 --gamma 101010101010 --out rec24.json
# verify takes W_f and N_f, then the closed dual's W and N, one pair of 64 MiB
# spectra live at a time: its max RSS read 222 MiB on a 2-core x86 Linux host
# (345 MiB with both pairs live), so the cold run fails above 256 MiB, a
# margin of 34 MiB.  The bound is not yet set from a CI runner's own figure,
# which the line below prints
python3 - <<'PY'
import resource, subprocess, sys
subprocess.run(["negabench", "verify", "--in", "rec24.json"], stdout=subprocess.DEVNULL, check=True)
rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024  # Linux: KiB
print(f"verify --in rec24.json: max RSS {rss:.0f} MiB (bound 256 MiB)")
sys.exit(rss > 256)
PY
# n = 24 on f0: the rule's duals signed by their own weights, and the rotation check
negabench gen --family F2RS --k 6 --p 110100111010 --out rec24rs.json
negabench verify --in rec24rs.json > /dev/null
# n = 24 at capacity, gen and verify --in each cold in a fresh process:
# * F2RS with all 351 nonzero orbit representatives: 4,095 cells, whose closed
#   ANF of 531,434 terms is expanded from the Z-power tables;
# * G4K with all 4,096 gammas: the largest Z-level point set, which leaves only
#   Z^0, and the largest coset union, 2^24 listed points.
# On a 2-core x86 Linux host gen's max RSS read 193-194 MiB for both, so it
# fails above 256 MiB; verify --in read 235 and 216 MiB there and only prints
# its figure until a CI runner's own figure sets its margin
python3 - <<'PY'
import os, subprocess, sys, time
reps = sorted({min((v >> i | v << 12 - i) & 4095 for i in range(12)) for v in range(1, 4096)})
assert len(reps) == 351
records = (("F2RS k=6, 351 reps", "rec24all.json",
            ["--family", "F2RS", "--k", "6"] + [a for r in reps for a in ("--p", format(r, "012b"))]),
           ("G4K k=6, 4,096 gammas", "rec24g4k.json",
            ["--family", "G4K", "--k", "6"]
            + [a for g in range(4096) for a in ("--gamma", format(g, "012b"))]))
for label, path, spec in records:
    for argv, bound in ((["negabench", "gen", *spec, "--out", path], 256),
                        (["negabench", "verify", "--in", path], None)):
        t0 = time.perf_counter()
        _, status, usage = os.wait4(subprocess.Popen(argv, stdout=subprocess.DEVNULL).pid, 0)
        rss = usage.ru_maxrss / 1024  # Linux: KiB
        print(f"{argv[1]} {label}: {time.perf_counter() - t0:.2f} s, "
              f"max RSS {rss:.0f} MiB" + (f" (bound {bound} MiB)" if bound else ""))
        if os.waitstatus_to_exitcode(status) or (bound and rss > bound):
            sys.exit(1)
PY
# n = 22 on the h0 base: its GF(2) rule duals, and the frame branch counts read from them
negabench gen --family H4K2 --k 5 --gamma 1101001110 --eset B --gamma 0010110001 --eset 0 --out rec22.json
negabench verify --in rec22.json --format json > rec22-report.json
rc=0; negabench verify --in rec.json --k 1 || rc=$?; test "$rc" -eq 4
rc=0; negabench dual --in rec.json --family G8K --gamma 1 || rc=$?; test "$rc" -eq 4
# a spec beyond --max-n is refused up front, writing no --out file, and an
# unknown flag is a usage error
rm -f refused.json
rc=0; negabench --max-n 8 gen --family G4K --k 3 --gamma 000111 --out refused.json || rc=$?
test "$rc" -eq 3; test ! -e refused.json
rc=0; negabench gen --bogus || rc=$?; test "$rc" -eq 2
rc=0; negabench lemma-check --set S2 --k 1 --gamma 0000 --gamma 0011 || rc=$?; test "$rc" -eq 4
negabench gen --family F2RS_ORBIT --k 1 --gamma 11 --out orbit.json
sed -i 's/"gamma":"11"/"gamma":"10"/' orbit.json
rc=0; negabench verify --in orbit.json || rc=$?; test "$rc" -eq 5
# a record nested 100,000 arrays deep is a malformed file, not a traceback
python3 -c 'print("[" * 100000)' > nested.json
rc=0; negabench verify --in nested.json || rc=$?; test "$rc" -eq 5
# one flipped tt_hex digit fails verify, and every failing check names a counterexample
flip_and_verify() {  # record, flipped record, its report
  python3 - "$1" "$2" <<'PY'
import json, sys
rec = json.load(open(sys.argv[1]))
rec["tt_hex"] = ("1" if rec["tt_hex"][0] != "1" else "2") + rec["tt_hex"][1:]
json.dump(rec, open(sys.argv[2], "w"))
PY
  rc=0; negabench verify --in "$2" --format json > "$3" || rc=$?
  test "$rc" -eq 1
  python3 - "$3" <<'PY'
import json, sys
failed = [c for c in json.load(open(sys.argv[1]))["checks"] if not c["passed"]]
sys.exit(not failed or not all(c.get("counterexample") for c in failed))
PY
}
flip_and_verify rec.json flipped.json flipped-report.json
# at n = 22 f differs from the rebuilt f1 = f0 + 1_T, so the frame check takes
# f1's spectra (six butterflies in all) and passes with the unflipped details
flip_and_verify rec22.json flipped22.json flipped22-report.json
python3 - <<'PY'
import json, sys
good, bad = (next(c for c in json.load(open(path))["checks"]
                  if c["name"] == "fragment-ratios-admissible")
             for path in ("rec22-report.json", "flipped22-report.json"))
sys.exit(not (good["passed"] and bad["passed"] and bad["details"] == good["details"]))
PY
