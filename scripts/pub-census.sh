#!/usr/bin/env bash
# Which public functions does nothing outside their own crate call?
#
#   scripts/pub-census.sh
#
# Works on a copy of the tree (without `target/` and `.git`) under
# $TMPDIR, with its own CARGO_TARGET_DIR there; the repository and
# labbench/Cargo.lock are never written. In the copy:
#
#  1. every `pub fn` (also `pub const fn` / `pub unsafe fn`) in
#     crates/*/src and vendor/*/src, binaries excluded, becomes
#     `pub(crate)`;
#  2. `cargo check` of every workspace target (bins, examples,
#     integration tests, unit tests) and of labbench --all-targets;
#     each definition a privacy error points at is `pub` again; repeat
#     until both build;
#  3. `cargo check --workspace` (libraries and binaries) then names the
#     narrowed functions that are never used, and a check of each such
#     crate's library with its unit tests tells those no test calls
#     ("no test") from those only their own crate's unit tests call
#     ("unit tests only").
#
# Prints one line per function, `file:line  Type::name  tag`, sorted by
# file and line, and the totals. Exit status 0 whatever it finds; 1 when
# the copy cannot be made to build by restoring `pub`.
set -euo pipefail

[ $# -eq 0 ] || { sed -n '2,4p' "$0" | sed 's/^# \{0,1\}//' >&2; exit 2; }

root=$(cd "$(dirname "$0")/.." && pwd)
work=$(mktemp -d "${TMPDIR:-/tmp}/pub-census.XXXXXX")
trap 'rm -rf "$work"' EXIT

mkdir "$work/tree"
tar -C "$root" --exclude=./.git --exclude=target --exclude=./.bench_build -cf - . \
    | tar -C "$work/tree" -xf -

export CARGO_TARGET_DIR="$work/target"
# Lints stay warnings whatever the caller's RUSTFLAGS or a crate's
# `#![deny(..)]` say: a narrowed function must show up as unused, not
# stop the build.
export RUSTFLAGS="--cap-lints warn"
export CARGO_TERM_COLOR=never

python3 - "$work/tree" <<'PY'
import json, os, re, subprocess, sys

tree = sys.argv[1]
os.chdir(tree)

PUB_FN = re.compile(r'^(\s*)pub ((?:const |unsafe )?fn )')
narrowed = {}  # (path, line) -> function name

for crate in sorted(os.path.join(top, name) for top in ('crates', 'vendor')
                    for name in os.listdir(top)):
    src = os.path.join(crate, 'src')
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != 'bin')
        for fn in sorted(f for f in filenames if f.endswith('.rs')):
            path = os.path.join(dirpath, fn)
            with open(path) as f:
                lines = f.readlines()
            for i, text in enumerate(lines):
                m = PUB_FN.match(text)
                if m:
                    lines[i] = PUB_FN.sub(r'\1pub(crate) \2', text, count=1)
                    name = re.search(r'fn\s+(\w+)', text).group(1)
                    narrowed[(path, i + 1)] = name
            with open(path, 'w') as f:
                f.writelines(lines)

def rel(file_name, cwd):
    return os.path.relpath(os.path.realpath(os.path.join(cwd, file_name)), tree)

def cargo(args, cwd='.'):
    """Runs `cargo <args>` with JSON messages; returns the rustc
    diagnostics, the directory their paths are relative to, and cargo's
    exit status and stderr."""
    p = subprocess.run(['cargo'] + args + ['--offline', '--message-format=json'],
                       cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    messages = (json.loads(l) for l in p.stdout.splitlines() if l.startswith('{'))
    diags = [m['message'] for m in messages if m.get('reason') == 'compiler-message']
    return diags, os.path.join(tree, cwd), p

def fail(why, detail):
    sys.stderr.write(f'pub-census: {why}:\n{detail}')
    sys.exit(1)

def spans(diag):
    yield from diag['spans']
    for child in diag['children']:
        yield from spans(child)

def narrowed_lines(span, cwd):
    path = rel(span['file_name'], cwd)
    for line in range(span['line_start'], span['line_end'] + 1):
        if (path, line) in narrowed:
            yield (path, line)

def restore(key):
    path, line = key
    with open(path) as f:
        lines = f.readlines()
    lines[line - 1] = lines[line - 1].replace('pub(crate) ', 'pub ', 1)
    with open(path, 'w') as f:
        f.writelines(lines)
    del narrowed[key]

CHECKS = [(['check', '--workspace', '--all-targets', '--keep-going'], '.'),
          (['check', '--all-targets', '--keep-going'], 'labbench')]
rounds = 0
while True:
    rounds += 1
    named, errors = set(), []
    for args, cwd in CHECKS:
        diags, at, run = cargo(args, cwd)
        for diag in diags:
            if diag['level'] != 'error':
                continue
            errors.append(diag['rendered'])
            for s in spans(diag):
                named.update(narrowed_lines(s, at))
            if (diag.get('code') or {}).get('code') == 'E0364':
                # `pub use` of a narrowed function: the error names the
                # re-export, so find the definition by name in that crate.
                name = re.search(r'`(\w+)`', diag['message']).group(1)
                crate = rel(diag['spans'][0]['file_name'], at).split(os.sep)[:2]
                named.update(k for k, v in narrowed.items()
                             if v == name and k[0].split(os.sep)[:2] == crate)
        if run.returncode != 0 and not errors:
            fail(f'cargo {" ".join(args)} failed in {cwd}', run.stderr)
        if errors:
            break
    if not errors:
        break
    if not named:
        fail('the copy does not build and no narrowed function is to blame',
             ''.join(errors[:5]))
    for key in sorted(named):
        restore(key)
    sys.stderr.write(f'round {rounds}: {len(named)} restored, '
                     f'{len(narrowed)} still narrowed\n')

def crate_of(path):
    """`crates/<name>` or `vendor/<name>`: the package directory."""
    return os.path.join(*path.split(os.sep)[:2])

def unused(args, crate=None):
    found = set()
    diags, at, run = cargo(args)
    if run.returncode != 0:
        fail(f'cargo {" ".join(args)} failed', run.stderr)
    for diag in diags:
        if diag['level'] == 'warning' and (diag.get('code') or {}).get('code') == 'dead_code':
            for s in diag['spans']:
                found.update(k for k in narrowed_lines(s, at)
                             if crate is None or crate_of(k[0]) == crate)
    return found

never_used = unused(['check', '--workspace'])
# One crate at a time: its library compiled with its unit tests. The
# other crates it depends on are built without theirs, so only this
# crate's own warnings count.
untested = set()
for crate in sorted({crate_of(k[0]) for k in never_used}):
    with open(os.path.join(crate, 'Cargo.toml')) as f:
        package = re.search(r'^name = "([^"]+)"', f.read(), re.M).group(1)
    untested |= unused(['check', '-p', package, '--lib', '--profile', 'test'], crate)

def owner(path, line):
    """The type of the nearest enclosing top-level `impl`, if any."""
    with open(path) as f:
        lines = f.readlines()
    for text in reversed(lines[:line - 1]):
        if text.startswith('impl'):
            m = re.match(r'impl(?:<[^>]*>)?\s+(?:[\w:<>, ]+\s+for\s+)?([\w:]+)', text)
            return m.group(1) + '::' if m else ''
        if text.startswith(('fn ', 'pub ', 'pub(crate) ', '}')):
            return ''
    return ''

for key in sorted(never_used):
    path, line = key
    tag = 'no test' if key in untested else 'unit tests only'
    print(f'{path}:{line}  {owner(path, line)}{narrowed[key]}  {tag}')
no_test = len(never_used & untested)
print(f'# {len(never_used)} unused outside their crate: {no_test} no test, '
      f'{len(never_used) - no_test} unit tests only ({rounds} build rounds)')
PY
