#!/usr/bin/env bash
# Runs the named mutants of mutants.txt and reports the ones that survive.
#
#   scripts/mutants.sh                          # every mutant in the list
#   scripts/mutants.sh reoffer-fits-strict ...  # only the named ones
#
# The tree is copied once into a temporary directory. Each mutant is then
# applied alone to that copy: its `find` must occur exactly once in its
# `file`, it is replaced, the mutant's `test` command runs from the copy's
# root and must fail, and the file is restored. Keeping one copy means
# cargo rebuilds only the mutated crate and its dependents between
# mutants. A test that fails because the mutant does not compile does not
# count as a kill.
#
# Exits non-zero if any mutant survives, does not build, or has a `find`
# that does not occur exactly once.
set -euo pipefail
shopt -u patsub_replacement 2>/dev/null || true

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
list=$root/mutants.txt

names=() files=() finds=() replaces=() tests=()
name='' file='' find='' replace='' test=''
flush() {
    if [[ -n $name ]]; then
        names+=("$name") files+=("$file") tests+=("$test")
        finds+=("${find//\\n/$'\n'}") replaces+=("${replace//\\n/$'\n'}")
    fi
    name='' file='' find='' replace='' test=''
}
while IFS= read -r line || [[ -n $line ]]; do
    case $line in
        '#'*) ;;
        '') flush ;;
        'name: '*) name=${line#name: } ;;
        'file: '*) file=${line#file: } ;;
        'find: '*) find=${line#find: } ;;
        'replace: '*) replace=${line#replace: } ;;
        'test: '*) test=${line#test: } ;;
        *)
            echo "mutants.txt: cannot parse: $line" >&2
            exit 2
            ;;
    esac
done <"$list"
flush

selected=("$@")
for want in "${selected[@]}"; do
    found=0
    for n in "${names[@]}"; do
        if [[ $n == "$want" ]]; then found=1; fi
    done
    if ((!found)); then
        echo "no mutant named $want in mutants.txt" >&2
        exit 2
    fi
done

scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT
tar -C "$root" --exclude=./target --exclude=./.git --exclude=./.bench_build \
    --exclude=./benchmark/target --exclude=./benchmark/out -cf - . | tar -C "$scratch" -xf -

failed=()
for i in "${!names[@]}"; do
    n=${names[i]}
    if ((${#selected[@]})); then
        pick=0
        for want in "${selected[@]}"; do
            if [[ $n == "$want" ]]; then pick=1; fi
        done
        ((pick)) || continue
    fi
    path=$scratch/${files[i]}
    find=${finds[i]}
    original=''
    [[ -f $path ]] && IFS= read -r -d '' original <"$path" || true
    rest=${original//"$find"/}
    count=0
    [[ -n $find ]] && count=$(((${#original} - ${#rest}) / ${#find}))
    if ((count != 1)); then
        echo "BAD FIND   $n: occurs $count times in ${files[i]}"
        failed+=("$n")
        continue
    fi
    printf '%s' "${original/"$find"/"${replaces[i]}"}" >"$path"
    log=$scratch/mutant-$n.log
    started=$SECONDS
    status=0
    (cd "$scratch" && bash -c "${tests[i]}") >"$log" 2>&1 || status=$?
    printf '%s' "$original" >"$path"
    took=$((SECONDS - started))
    if grep -q -e '^error\[E' -e '^error: could not compile' "$log"; then
        echo "NO BUILD   $n (${took}s)"
        tail -n 20 "$log"
        failed+=("$n")
    elif ((status == 0)); then
        echo "SURVIVED   $n (${took}s): ${tests[i]}"
        failed+=("$n")
    else
        echo "killed     $n (${took}s): $(grep -m1 -e 'panicked at' -e 'FAILED' "$log" || true)"
    fi
done

if ((${#failed[@]})); then
    echo "${#failed[@]} mutant(s) not killed: ${failed[*]}"
    exit 1
fi
echo "every mutant killed"
