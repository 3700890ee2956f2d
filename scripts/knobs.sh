#!/bin/sh
# The option count of record: the `pub` fields of the option structs a caller
# can set, plus the fields of the two option enums' struct variants. ROADMAP's
# house rule "no new `Options` field" and CHANGES.md quote these numbers.
#
# usage: scripts/knobs.sh [--max N] [repo-root]
#
# The table is always printed; with `--max N` a total above N is named on
# stderr and the exit status is non-zero (CI's ceiling). A type the script
# cannot find (moved, renamed) is an error too, not a silent zero — and so is
# a struct variant of an enum in options.rs that the table below does not
# name: its fields would be knobs nobody counts (`CompactionPolicy::Tiering
# { runs_per_level }` was, until it was deleted).
max=0
if [ "$1" = --max ]; then
    max=$2
    shift 2
fi
cd "${1:-$(dirname "$0")/..}" || exit 1

# name | file | the line that opens the block | what a counted field looks like
# (a struct's are `pub` at one indent, a variant's are bare at two).
struct='^    pub [a-z_0-9]+:'
variant='^        [a-z_0-9]+:'
knobs="\
Options|crates/lsm/src/options.rs|^pub struct Options [{]|$struct
ShardedOptions|crates/lsm/src/options.rs|^pub struct ShardedOptions [{]|$struct
ReadOptions|crates/lsm/src/options.rs|^pub struct ReadOptions<|$struct
WriteOptions|crates/lsm/src/options.rs|^pub struct WriteOptions [{]|$struct
ServerOptions|crates/server/src/server.rs|^pub struct ServerOptions [{]|$struct
IndexConfig|crates/learned/src/lib.rs|^pub struct IndexConfig [{]|$struct
Maintenance::Background|crates/lsm/src/options.rs|^    Background [{]|$variant
ShardingPolicy::LearnedRange|crates/lsm/src/options.rs|^    LearnedRange [{]|$variant"

total=0 missing=0
while IFS='|' read -r name file open field; do
    n=$(awk -v open="$open" -v field="$field" '
        !inside && $0 ~ open {
            inside = 1
            match($0, /^ */)
            shut = "^" substr($0, 1, RLENGTH) "}"
            next
        }
        inside && $0 ~ shut { exit }
        inside && $0 ~ field { n++ }
        END { print n + 0 }' "$file")
    printf '%6d  %-30s %s\n' "$n" "$name" "$file"
    if [ "$n" -eq 0 ]; then
        echo "$name: not found in $file" >&2
        missing=1
    fi
    total=$((total + n))
done <<EOF
$knobs
EOF
for variant in $(awk '
    /^pub enum / { enum = $3 }
    /^}/ { enum = "" }
    enum != "" && /^    [A-Z][A-Za-z0-9]* [{]/ { print enum "::" $1 }' crates/lsm/src/options.rs); do
    if ! echo "$knobs" | grep -q "^$variant|"; then
        echo "$variant: a struct variant in crates/lsm/src/options.rs the table does not count" >&2
        missing=1
    fi
done
printf '%6d  (total)\n' "$total"
if [ "$max" -gt 0 ] && [ "$total" -gt "$max" ]; then
    echo "$total options, over the ceiling of $max" >&2
    exit 1
fi
exit $missing
