#!/bin/sh
# CLI transcript for leakctl: every command below runs on a small input in
# a fresh temporary directory, and the log (the command line, its merged
# stdout/stderr, and a non-zero exit status in brackets) goes to stdout.
# `dune runtest` diffs the log against cli.expected; after an intended
# output change, `dune promote` accepts the new log.
#
# usage: sh cli.sh PATH/TO/leakctl.exe

set -u
exe=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
unset LEAKCTL_TRACE LEAKCTL_JOBS
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work" || exit 1

run() {
  printf '$ leakctl %s\n' "$*"
  "$exe" "$@" 2>&1
  status=$?
  [ "$status" -eq 0 ] || printf '[%d]\n' "$status"
}

run list
run stats --circuit alu88
run sim --circuit alu88
run estimate --circuit alu88 --vectors 3 --top 5 --sigma -j 2 --csv est.csv
printf '$ cat est.csv\n'
cat est.csv
run characterize --kind NAND2 --vector 01
run characterize --device D25jn --temp 85
run sweep --kind NAND2 --vector 01
run mc --samples 200
run stat --circuit alu88 --samples 200 --sigma
run mtcmos --circuit alu88
run thermal --circuit alu88
run thermal --circuit alu88 --r-theta 1000 --power 1
run dualvth --circuit alu88
run prob --circuit alu88 --device d25-s --temp 85
run corners --circuit alu88
run vectors --circuit alu88
run generate --circuit alu88 -o x.bench
run snapshot --bench x.bench -o x.lkn
run stats --bench x.lkn

# error paths: one stderr line (cmdliner's usage text for bad flags) and
# the exit status
run stats --circuit nope
run stats --circuit alu88 --bench x.bench
run estimate --circuit alu88 --device bogus
run top --socket absent.sock --frames 1
run client --socket absent.sock ping
run client --socket absent.sock open --bench x.lkn
run client --socket absent.sock --device bogus open --circuit alu88
run estimate --circuit alu88 --vectors 0
run estimate --circuit alu88 --passes 0
run suite --vectors 0
run mc --samples 0
run stat --circuit alu88 --samples 0
run prob --circuit alu88 --p1 nan
run prob --circuit alu88 --p1 1.5
run sweep --temp nan
run mtcmos --circuit alu88 --width nan
run estimate --circuit alu88 --temp=-300
run thermal --circuit alu88 --r-theta=-5
run mtcmos --circuit alu88 --width 0
run dualvth --circuit alu88 --shift nan
run dualvth --circuit alu88 --margin=-2
run incr --circuit alu88 --refresh=-1
run sweep --kind NAND2 --pin 5
run characterize --kind NAND2 --vector 0
run sweep --kind NAND2 --vector 2x
run serve --socket s.sock --executors 0
run serve --socket s.sock --quota 0
run serve --socket s.sock --max-sessions 0
