#!/usr/bin/env bash
# Every case study's acceptance checks, at the paper config and at the mixes
# below; a failed check exits with status 3 and stops the script. Outputs go
# under out/<name>. The arguments are the command that runs the CLI:
#
#   bash .github/case-studies.sh python -m qenergydex.cli
#   bash .github/case-studies.sh qenergydex
set -euo pipefail
: "${1:?usage: $0 <runner...>, e.g. python -m qenergydex.cli or qenergydex}"
run=("$@")
mkdir -p out

for cmd in rate-adapt qsah-bench porlite keypool market full-stack; do
  "${run[@]}" "$cmd" --check --seed 1 --out "out/$cmd"
done
# at seed 2 the two stacks admit different sets: the clear memo misses
"${run[@]}" market --check --seed 2 --out out/market-seed2
"${run[@]}" porlite --check --seed 2 --out out/porlite-seed2
"${run[@]}" keypool --check --seed 2 --out out/keypool-seed2
# the pool's generation rate is the mean secure capacity over the whole trace
"${run[@]}" full-stack --check --seed 2 --out out/full-stack-seed2
# a 600 s trace: 600k CSV rows written block by block, 120 pulses each
# added on its own support window
echo '{"trace": {"duration_s": 600.0}}' > out/rate-adapt-600s.json
"${run[@]}" rate-adapt --check --seed 1 --config out/rate-adapt-600s.json --out out/rate-adapt-600s
# the fixed arm at R_max, above the capacity in every interval, alone and
# with the adaptive gain near its bound of 1
echo '{"kms": {"fixed_fraction": 1.0}}' > out/rate-adapt-fixed-max.json
"${run[@]}" rate-adapt --check --seed 1 --config out/rate-adapt-fixed-max.json --out out/rate-adapt-fixed-max
echo '{"kms": {"fixed_fraction": 1.0, "gamma0": 0.99}}' > out/rate-adapt-gamma099.json
"${run[@]}" rate-adapt --check --seed 1 --config out/rate-adapt-gamma099.json --out out/rate-adapt-gamma099
# capacity 12: the key-pool walk's rows are shorter than _SCAN_COLS
echo '{"keypool": {"capacity": 12}}' > out/keypool-capacity12.json
"${run[@]}" keypool --check --config out/keypool-capacity12.json --out out/keypool-capacity12
# each load factor of the paper run alone (out/keypool-rho099 is rho = 0.99):
# every row runs on the same draw, and each one-row table2.csv must equal
# that row of the paper run, so no row depends on the others
for row in $(tail -n +2 out/keypool/table2.csv); do
  rho=${row%%,*}
  name="keypool-rho${rho/./}"
  echo "{\"keypool\": {\"rhos\": [$rho]}}" > "out/$name.json"
  "${run[@]}" keypool --check --config "out/$name.json" --out "out/$name"
  if [ "$(tail -n +2 "out/$name/table2.csv")" != "$row" ]; then
    echo "$name: its table2.csv row differs from the rho = $rho row of out/keypool" >&2
    exit 1
  fi
done
# small batches on a slow link: the handshake oracle beyond the default shape
echo '{"qsah": {"n_handshakes": 1000, "batch_size": 7}, "links": {"d0_ms": 900.0, "jitter_max_ms": 50.0}}' > out/qsah-slow-link.json
"${run[@]}" qsah-bench --check --config out/qsah-slow-link.json --out out/qsah-slow-link
# PoR-Lite with no forks (alpha 0) and with no empty slots (beta 0)
echo '{"consensus": {"alpha": 0.0, "horizon": 20000, "seeds": 4}}' > out/porlite-alpha0.json
"${run[@]}" porlite --check --config out/porlite-alpha0.json --out out/porlite-alpha0
echo '{"consensus": {"alpha": 0.3, "beta": 0.0, "horizon": 20000, "seeds": 4}}' > out/porlite-beta0.json
"${run[@]}" porlite --check --config out/porlite-beta0.json --out out/porlite-beta0
# full-stack with Byzantine validators: the one run of the equivocate branch
echo '{"full_stack": {"alpha": 0.25}}' > out/full-stack-alpha025.json
"${run[@]}" full-stack --check --config out/full-stack-alpha025.json --out out/full-stack-alpha025
