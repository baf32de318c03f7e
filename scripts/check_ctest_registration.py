#!/usr/bin/env python3
"""Fail if any built tests/ binary is not registered with ctest.

gtest_discover_tests() registers each TEST as its own ctest entry, but a
test target that is added with plain add_executable (or whose discovery
silently failed, e.g. a DISCOVERY_TIMEOUT) builds fine while contributing
zero ctest entries — `ctest` stays green and the suite never runs. This
audit closes that hole: every executable under <build>/tests must back at
least one test in `ctest --show-only=json-v1`.

Usage: check_ctest_registration.py <build-dir>
"""

import json
import os
import subprocess
import sys


def registered_binaries(build_dir: str) -> set:
    """Basenames of every executable ctest would invoke."""
    out = subprocess.run(
        ["ctest", "--show-only=json-v1"],
        cwd=build_dir,
        check=True,
        capture_output=True,
        text=True,
    ).stdout
    model = json.loads(out)
    binaries = set()
    for test in model.get("tests", []):
        command = test.get("command")
        if command:
            binaries.add(os.path.basename(command[0]))
    return binaries


def built_test_binaries(build_dir: str) -> list:
    """Basenames of every test executable the build produced."""
    tests_dir = os.path.join(build_dir, "tests")
    if not os.path.isdir(tests_dir):
        sys.exit(f"error: {tests_dir} does not exist (build first)")
    found = []
    for name in sorted(os.listdir(tests_dir)):
        path = os.path.join(tests_dir, name)
        if (
            name.startswith("test_")
            and os.path.isfile(path)
            and os.access(path, os.X_OK)
        ):
            found.append(name)
    if not found:
        sys.exit(f"error: no test_* executables under {tests_dir}")
    return found


# Binaries that must exist AND be registered — deleting one of these from
# tests/CMakeLists.txt silently shrinks the suite without failing a build,
# so the audit pins the suites that gate numeric exactness contracts.
REQUIRED_BINARIES = {
    "test_ml_kernels_dispatch",  # SIMD clones bit-identical per ISA
    "test_ml_knn_index",         # KD-tree verdicts == brute force
    "test_ml_quantized",         # q16 serving tier
    "test_ml_serialization",
    "test_serve_engine",
}


def main() -> int:
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} <build-dir>")
    build_dir = sys.argv[1]

    registered = registered_binaries(build_dir)
    built = built_test_binaries(build_dir)
    unregistered = [name for name in built if name not in registered]
    missing = sorted(REQUIRED_BINARIES - set(built))
    if missing:
        print(
            "error: required test binaries were never built "
            "(removed from tests/CMakeLists.txt?):",
            file=sys.stderr,
        )
        for name in missing:
            print(f"  {name}", file=sys.stderr)
        return 1

    print(
        f"ctest registration audit: {len(built)} test binaries, "
        f"{len(registered)} distinct registered executables"
    )
    if unregistered:
        print(
            "error: built test binaries with no ctest registration "
            "(missing hmd_add_test / failed discovery?):",
            file=sys.stderr,
        )
        for name in unregistered:
            print(f"  {name}", file=sys.stderr)
        return 1
    print("ok: every tests/ binary is registered with ctest")
    return 0


if __name__ == "__main__":
    sys.exit(main())
