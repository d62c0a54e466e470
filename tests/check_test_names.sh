#!/bin/sh
# Fails when a gtest binary lists different test names on two runs.
#
#   sh check_test_names.sh TEST_BINARY...
#
# ctest stores each name as gtest lists it at build time, including the
# printed parameter of a parameterized test. A parameter printed as a raw
# byte dump of pointers or padding changes from run to run, and so does the
# ctest ID of every such test.
status=0
for bin in "$@"; do
  if ! a=$("$bin" --gtest_list_tests) || ! b=$("$bin" --gtest_list_tests); then
    echo "$bin --gtest_list_tests failed"
    status=1
    continue
  fi
  if [ "$a" != "$b" ]; then
    echo "$bin: test names differ between two listings:"
    printf '%s\n' "$a" "$b" | sort | uniq -u | head -20
    status=1
  fi
done
exit $status
