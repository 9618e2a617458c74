#!/usr/bin/env bash
# fdp_sim output goldens: exact stdout and --out JSON for a short matrix
# of single-core and co-run configurations, plus the `fdp_snap info'
# listing and the SHA-256 of one single-core warm snapshot image.
# Every run is deterministic, so any difference is a change in
# simulated behaviour.
#
#   tests/golden/goldens.sh BIN_DIR            diff against the goldens
#   tests/golden/goldens.sh BIN_DIR --update   rewrite the goldens
#
# BIN_DIR holds fdp_sim and fdp_snap (build/bench in a default build).
# Registered with ctest as `golden.fdp_sim'.

set -eu

[ $# -ge 1 ] || { echo "usage: $0 BIN_DIR [--update]" >&2; exit 2; }
BIN="$(cd "$1" && pwd)"
UPDATE=0
[ "${2:-}" = "--update" ] && UPDATE=1
GOLDEN="$(cd "$(dirname "$0")" && pwd)"
WORK="$(mktemp -d "${TMPDIR:-/tmp}/fdp-goldens.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT
cd "$WORK"

# name | fdp_sim arguments
CASES=(
    "ghb-swim|--bench swim --prefetcher ghb --insts 100000"
    "manager-explore|--bench swim --bench mcf --manager explore --l2-kb 128 --insts 200000"
    "warmup|--bench art --bench swim --warmup 50000 --insts 50000"
    "mix2-stream|--mix mix2-stream --insts 50000"
    "mix8-mixed-controller|--mix mix8-mixed --dram controller --insts 30000"
    "mix4-zoo|--mix mix4-zoo --l2-kb 256 --insts 100000"
)

for entry in "${CASES[@]}"; do
    name="${entry%%|*}"
    read -r -a args <<< "${entry#*|}"
    "$BIN/fdp_sim" "${args[@]}" --jobs 1 --out "$name.json" \
        > "$name.out" 2> /dev/null
done

"$BIN/fdp_sim" --bench swim --warmup 50000 --save-snap swim.fdpsnap \
    > snap-save.out 2> /dev/null
"$BIN/fdp_snap" info swim.fdpsnap > snap-info.out
sha256sum swim.fdpsnap > snap.sha256
rm swim.fdpsnap

if [ "$UPDATE" = 1 ]; then
    cp ./*.out ./*.json snap.sha256 "$GOLDEN/"
    echo "goldens: rewrote $(ls | wc -l) files in $GOLDEN"
    exit 0
fi

status=0
for f in *; do
    if ! diff -u "$GOLDEN/$f" "$f"; then
        echo "goldens: $f differs from the committed golden" >&2
        status=1
    fi
done
[ "$status" = 0 ] && echo "goldens: $(ls | wc -l) files match"
exit "$status"
