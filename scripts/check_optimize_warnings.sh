#!/bin/sh
# optimize with every RuntimeWarning made an error, on sample_config.ini at
# one path and on its p = 40 variant (the config of tests/test_cli.py whose
# |grad u|^38 overflows on far trial points).  pytest's filterwarnings
# (pyproject.toml) does not reach the CLI, so this is what shows a numpy
# floating-point warning that a moved np.errstate scope lets through.
#
#   usage: scripts/check_optimize_warnings.sh [OUT_DIR]
#
# Runs the package in this checkout's src/; exits nonzero if either run
# exits nonzero or prints a RuntimeWarning.
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
out=${1:-$(mktemp -d)}
mkdir -p "$out"
sed 's/^p = 3.0$/p = 40/' "$root/sample_config.ini" > "$out/p40.ini"
grep -q '^p = 40$' "$out/p40.ini"
for config in "$root/sample_config.ini" "$out/p40.ini"; do
    name=$(basename "$config" .ini)
    code=0
    PYTHONPATH="$root/src" PYTHONWARNINGS=error::RuntimeWarning python -c \
        'import sys; from plaplace_levy.cli import main; sys.exit(main())' \
        optimize --config "$config" --paths 1 --out "$out/optimize-$name" \
        > "$out/$name.log" 2>&1 || code=$?
    if [ "$code" -ne 0 ] || grep -q RuntimeWarning "$out/$name.log"; then
        cat "$out/$name.log"
        echo "optimize on $name: exit $code" >&2
        exit 1
    fi
    echo "optimize on $name: exit 0, no RuntimeWarning"
done
