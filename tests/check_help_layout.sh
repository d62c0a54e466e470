#!/bin/sh
# Fails when a flag head in a tool's --help output runs into its help text.
#
#   sh check_help_layout.sh TOOL...
#
# Help text starts in column 17. A flag line ("  -...") must either hold its
# head alone ("--name [VALUE]", help on the next line) or leave at least one
# space between the head and column 17.
status=0
for tool in "$@"; do
  if ! out=$("$tool" --help); then
    echo "$tool --help failed"
    status=1
    continue
  fi
  printf '%s\n' "$out" | awk -v tool="$tool" '
    /^  -/ {
      if ($0 ~ /^  -[-a-z0-9]+( [A-Z][A-Z,_]*)?$/) next
      if (substr($0, 17, 1) == " " && substr($0, 1, 17) ~ /^  -[-a-z0-9]+( [A-Z][A-Z,_]*)? *$/) next
      print tool ": flag head touches its help: " $0
      bad = 1
    }
    END { exit bad }' || status=1
done
exit $status
