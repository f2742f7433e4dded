#!/usr/bin/env bash
# Fails when any ':'-separated pattern of $GTEST_FILTER matches no test
# of the given gtest binary, so a renamed or deleted suite cannot leave
# a sanitizer job silently running less than its filter names.
#
# Usage: GTEST_FILTER='A.*:B.*' tools/check_gtest_filter.sh BINARY
set -euo pipefail

binary="$1"
: "${GTEST_FILTER:?GTEST_FILTER is not set}"
IFS=':' read -ra patterns <<< "${GTEST_FILTER}"
status=0
for pattern in "${patterns[@]}"; do
  if ! "${binary}" --gtest_list_tests --gtest_filter="${pattern}" \
      | grep -q '^  '; then
    echo "gtest filter pattern '${pattern}' matched no tests" >&2
    status=1
  fi
done
exit "${status}"
