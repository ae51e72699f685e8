#!/usr/bin/env python3
"""List library functions that no shipped binary keeps.

Build the bench and example targets, and perfbench/ as its own project, with

    -DCMAKE_BUILD_TYPE=Debug
    -DCMAKE_CXX_FLAGS="-O0 -g0 -ffunction-sections -fdata-sections"
    -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections

then run

    python3 tools/unused_symbols.py BUILD_DIR [BUILD_DIR ...]

The script collects the strong text symbols (`nm` type T) of every
libdasched_*.a under the build directories, and the text symbols (T/t/W/w)
of every linked executable under them, skipping test binaries and CMake's
own probes. A library function that no executable keeps after
--gc-sections is reached by nothing the project ships. At -O0 nothing is
inlined, so a function that only inlined callers use still shows as kept.

Each such function must be listed in the allowlist (default:
tools/unused_symbols.allow), one demangled symbol per line followed by
" # " and the reason it stays. The script exits 1 on any unused function
that is not listed, and notes listed entries that are no longer unused.

`python3 tools/unused_symbols.py --self-test` checks the set difference and
the allowlist parser without a build.
"""

import argparse
import os
import subprocess
import sys

DEFAULT_ALLOWLIST = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                 "unused_symbols.allow")
SKIP_DIRS = {"CMakeFiles", "tests"}


def nm_symbols(path, kinds):
    """Demangled names of the defined symbols of `path` whose nm type is in `kinds`."""
    out = subprocess.run(["nm", "-C", "--defined-only", path], check=True,
                         capture_output=True, text=True).stdout
    names = set()
    for line in out.splitlines():
        # "<address> <type> <name>"; archive member headers have no type.
        parts = line.split(" ", 2)
        if len(parts) == 3 and parts[1] in kinds:
            names.add(parts[2])
    return names


def is_elf_executable(path):
    if not os.access(path, os.X_OK) or not os.path.isfile(path):
        return False
    with open(path, "rb") as f:
        return f.read(4) == b"\x7fELF"


def scan(build_dirs):
    """(archives, executables) under the build directories."""
    archives, executables = [], []
    for root_dir in build_dirs:
        for root, dirs, files in os.walk(root_dir):
            dirs[:] = sorted(d for d in dirs if d not in SKIP_DIRS)
            for name in sorted(files):
                path = os.path.join(root, name)
                if name.startswith("libdasched_") and name.endswith(".a"):
                    archives.append(path)
                elif is_elf_executable(path):
                    executables.append(path)
    return archives, executables


def parse_allowlist(lines):
    """{symbol: reason}; raises ValueError on an entry without a reason."""
    entries = {}
    for number, line in enumerate(lines, 1):
        text = line.rstrip("\n")
        if not text.strip() or text.lstrip().startswith("#"):
            continue
        symbol, sep, reason = text.partition(" # ")
        if not sep or not reason.strip() or not symbol.strip():
            raise ValueError(f"allowlist line {number}: expected '<symbol> # <reason>'")
        entries[symbol.strip()] = reason.strip()
    return entries


def unused(library_symbols, kept_symbols):
    return sorted(library_symbols - kept_symbols)


def self_test():
    lib = {"a::f()", "a::g(int)", "a::h()"}
    kept = {"a::f()", "main"}
    assert unused(lib, kept) == ["a::g(int)", "a::h()"]
    allow = parse_allowlist(["# comment", "", "a::g(int) # fixture for the fuzzer"])
    assert allow == {"a::g(int)": "fixture for the fuzzer"}
    for bad in ["a::g(int)", "a::g(int) # ", "a::g(int) #reason"]:
        try:
            parse_allowlist([bad])
        except ValueError:
            continue
        raise AssertionError(f"accepted {bad!r}")
    print("unused_symbols self-test ok")
    return 0


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("build_dirs", nargs="*")
    ap.add_argument("--allowlist", default=DEFAULT_ALLOWLIST)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args(argv)
    if args.self_test:
        return self_test()
    if not args.build_dirs:
        ap.error("give at least one build directory")

    archives, executables = scan(args.build_dirs)
    if not archives or not executables:
        print(f"found {len(archives)} archives and {len(executables)} executables; "
              "build the bench, example and perfbench targets first", file=sys.stderr)
        return 2
    library = set()
    for path in archives:
        library |= nm_symbols(path, {"T"})
    kept = set()
    for path in executables:
        kept |= nm_symbols(path, {"T", "t", "W", "w"})

    with open(args.allowlist) as f:
        allow = parse_allowlist(f)
    found = unused(library, kept)
    missing = [s for s in found if s not in allow]
    stale = sorted(set(allow) - set(found))

    print(f"{len(archives)} archives, {len(executables)} executables: "
          f"{len(found)} unused library functions, {len(found) - len(missing)} allowlisted")
    for symbol in stale:
        print(f"note: allowlisted but no longer unused: {symbol}")
    for symbol in missing:
        print(f"unused: {symbol}")
    if missing:
        print(f"{len(missing)} unused functions are not on {args.allowlist}: delete them, "
              "or list each with the reason it stays", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
