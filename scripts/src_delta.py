#!/usr/bin/env python3
"""Net line change under src/ between a base ref and the working tree.

Usage (from anywhere inside the repository):

  scripts/src_delta.py <base-ref>

For every file under src/ that differs between <base-ref> and the working
tree -- modified, deleted, or added (tracked or not yet added) -- counts
its code, comment and blank lines on both sides: the old side through
`git show <base-ref>:<path>`, the new side from disk.  Prints each file's
net change per kind, the totals, and git's raw +/- line counts, so a
simplification can be reported as code lines removed rather than as
comment or blank churn.

A line is blank if it holds only whitespace, a comment if it starts with
`//` after any indentation or lies inside a /* ... */ block (the opening
and closing lines included), and code otherwise.  A code line that opens
a block comment it does not close counts as code; the lines after it are
comment lines.

Exit status: 0 on success, 2 on a bad ref or a git error.
"""
import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
KINDS = ("code", "comment", "blank")


def die(message):
    print(f"src_delta.py: {message}", file=sys.stderr)
    sys.exit(2)


def git(*args):
    result = subprocess.run(["git", "-C", REPO, *args], capture_output=True,
                            text=True)
    if result.returncode != 0:
        die(f"git {' '.join(args)} failed: {result.stderr.strip()}")
    return result.stdout


def classify(text):
    """Returns {"code": n, "comment": n, "blank": n} for a file's text."""
    counts = dict.fromkeys(KINDS, 0)
    in_block = False
    for line in text.splitlines():
        stripped = line.strip()
        if in_block:
            counts["comment"] += 1
            in_block = "*/" not in stripped
        elif not stripped:
            counts["blank"] += 1
        elif stripped.startswith("//"):
            counts["comment"] += 1
        elif stripped.startswith("/*"):
            counts["comment"] += 1
            in_block = "*/" not in stripped[2:]
        else:
            counts["code"] += 1
            opened = stripped.rfind("/*")
            in_block = opened >= 0 and "*/" not in stripped[opened + 2:]
    return counts


def changed_files(base):
    """Yields (status, path, untracked) for each src/ file that differs
    from `base`; untracked files are additions git diff does not see."""
    out = git("diff", "--no-renames", "--name-status", base, "--", "src/")
    for line in out.splitlines():
        status, path = line.split("\t", 1)
        yield status[0], path, False
    untracked = git("ls-files", "--others", "--exclude-standard", "--", "src/")
    for path in untracked.splitlines():
        yield "A", path, True


def old_side(base, status, path):
    return "" if status == "A" else git("show", f"{base}:{path}")


def new_side(status, path):
    if status == "D":
        return ""
    with open(os.path.join(REPO, path), encoding="utf-8") as f:
        return f.read()


def main():
    if len(sys.argv) != 2 or sys.argv[1].startswith("-"):
        die("usage: scripts/src_delta.py <base-ref>")
    base = sys.argv[1]
    check = subprocess.run(
        ["git", "-C", REPO, "rev-parse", "--verify", "--quiet",
         f"{base}^{{commit}}"], capture_output=True, text=True)
    if check.returncode != 0:
        die(f"{base} does not name a commit")

    rows = []
    before = dict.fromkeys(KINDS, 0)
    after = dict.fromkeys(KINDS, 0)
    added_lines = 0
    for status, path, untracked in sorted(changed_files(base),
                                          key=lambda e: e[1]):
        old = classify(old_side(base, status, path))
        new = classify(new_side(status, path))
        for kind in KINDS:
            before[kind] += old[kind]
            after[kind] += new[kind]
        rows.append((status, path, {k: new[k] - old[k] for k in KINDS}))
        if untracked:
            added_lines += sum(new.values())

    if not rows:
        print(f"src/ is unchanged since {base}")
        return 0
    width = max(len(path) for _, path, _ in rows)
    print(f"   {'file':<{width}}  {'code':>6} {'comment':>8} {'blank':>6}")
    for status, path, net in rows:
        print(f"{status}  {path:<{width}}  {net['code']:>+6} "
              f"{net['comment']:>+8} {net['blank']:>+6}")
    net = {k: after[k] - before[k] for k in KINDS}
    print(f"   {'total':<{width}}  {net['code']:>+6} {net['comment']:>+8} "
          f"{net['blank']:>+6}")
    print(f"changed files: code lines {before['code']} -> {after['code']}, "
          f"all lines {sum(before.values())} -> {sum(after.values())} "
          f"({sum(net.values()):+d})")

    plus = minus = 0
    for line in git("diff", "--no-renames", "--numstat", base, "--",
                    "src/").splitlines():
        added, removed, _ = line.split("\t", 2)
        if added != "-":  # binary files report "-"
            plus += int(added)
            minus += int(removed)
    plus += added_lines
    print(f"git: +{plus} -{minus} (net {plus - minus:+d})"
          + (" incl. untracked files" if added_lines else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
