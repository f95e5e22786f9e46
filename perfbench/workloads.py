"""Seeded job lists for the relhyp benchmark.

A job is one `relhyp` command line plus the facts its checker needs.  The
seed renames the generator letters of every presentation (the symbol
order, and so every cost, stays the same), draws the coboundary section
of the algebra workload, the Dehn-filling linking matrices and slopes,
and is passed as `--seed` to every command.  The program receives only
the files written here and the argv.
"""

import math
import random
import string
from pathlib import Path

WORKLOADS = ("acceptor", "algebra", "geometry")

# Four probes of the bounded-search word-problem oracle at radius 3.
# At the seed the Z/3xZ ball comes back with wrong sphere sizes and exit 0,
# and the other three abort on the oracle budget (ROADMAP item 1).  They
# count as failed jobs; `correct` stays true while these are the only
# failures, so a fix turns them into passes without a benchmark change.
KNOWN_FAILURES = frozenset({
    "probe-s3", "probe-z3xz", "probe-z2freez3", "probe-zfreez2",
})

# Each group: generator count, relators over positional letters
# (0 = first generator, uppercase = inverse), and the parabolic
# generators.  The seed picks the actual letters.
GROUPS = {
    "z": (1, (), ()),
    "f2": (2, (), ()),
    "f2-rel-b": (2, (), (1,)),
    "z2": (2, ("abAB",), ()),
    "z2-rel-b": (2, ("abAB",), (1,)),
    "z3": (3, ("abAB", "acAC", "bcBC"), ()),
    "s3": (2, ("aa", "bbb", "abab"), ()),
    "z3xz": (2, ("aaa", "abAB"), ()),
    "z2freez3": (2, ("aa", "bbb"), ()),
    "zfreez2": (3, ("bcBC",), (1, 2)),
}


def _spell(word, letters):
    """Positional word ('abAB') in the chosen letters."""
    out = []
    for ch in word:
        name = letters[ord(ch.lower()) - ord("a")]
        out.append(name.upper() if ch.isupper() else name)
    return "".join(out)


def _presentation(group, letters):
    k, relators, parabolic = GROUPS[group]
    lines = ["[generators] " + " ".join(letters)]
    if relators:
        lines.append("[relators] " + " ".join(_spell(r, letters)
                                              for r in relators))
    if parabolic:
        lines.append("[parabolic P] " + " ".join(letters[i]
                                                for i in parabolic))
    return "\n".join(lines) + "\n"


class _Files:
    """Writes the input files of one workload and names them for argv."""

    def __init__(self, rng, directory: Path, rel: str):
        self.rng = rng
        self.directory = directory
        self.rel = rel
        self.letters = {}

    def write(self, name, text):
        (self.directory / name).write_text(text, encoding="utf-8")
        return f"{self.rel}/{name}"

    def pres(self, group):
        """Presentation file for a group; letters fixed per group."""
        if group not in self.letters:
            self.letters[group] = self.rng.sample(string.ascii_lowercase,
                                                  GROUPS[group][0])
            self.write(f"{group}.pres",
                       _presentation(group, self.letters[group]))
        return f"{self.rel}/{group}.pres"


def _job(name, argv, check, seed, **facts):
    return {"name": name, "argv": list(argv) + ["--seed", str(seed)],
            "check": dict(check=check, **facts)}


def acceptor_jobs(files, seed):
    cases = (
        ("fftp-f2", "f2", 3, "neg-length"),
        ("fftp-f2-rel-b", "f2-rel-b", 3, "neg-electric"),
        ("fftp-z2", "z2", 4, "neg-length"),
        ("fftp-z3", "z3", 3, "neg-length"),
        ("fftp-z2-rel-b", "z2-rel-b", 3, "neg-electric"),
    )
    return [_job(name, ["fftp-automaton", files.pres(g), "--delta", str(d)],
                 "fftp", seed, group=g, letters=files.letters[g],
                 delta=d, height=h)
            for name, g, d, h in cases]


def _z2_word(x, y, letters):
    a, b = letters
    return ((a if x > 0 else a.upper()) * abs(x)
            + (b if y > 0 else b.upper()) * abs(y)) or "1"


def _cocycle_file(radius, value, letters):
    pts = [(x, y) for x in range(-radius, radius + 1)
           for y in range(-radius, radius + 1) if abs(x) + abs(y) <= radius]
    lines = []
    for g in pts:
        for h in pts:
            lines.append(f"{_z2_word(*g, letters)} {_z2_word(*h, letters)} "
                         f"{value(g, h)}")
    return "\n".join(lines) + "\n"


def _skew_matrix(rng, n):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = rng.randint(-3, 3)
            rows[i][j], rows[j][i] = v, -v
    return rows


def _slopes(rng, n):
    """n-1 filled slopes, one of them 1/0, then a trailing unfilled *."""
    out = []
    for i in range(n - 1):
        if i == n // 2:
            out.append((1, 0))
            continue
        while True:
            u, v = rng.randint(-9, 9), rng.randint(1, 9)
            if u and math.gcd(u, v) == 1:
                break
        out.append((u, v))
    return out + [None]


def algebra_jobs(files, seed):
    rng = files.rng
    pres = files.pres("z2")
    letters = files.letters["z2"]
    # a seeded integer section rho on Z^2 coordinates; its coboundary
    # rho(g) + rho(h) - rho(gh) is a coboundary by construction
    c = [rng.randint(1, 5) * rng.choice((-1, 1)) for _ in range(4)]

    def rho(p):
        x, y = p
        return c[0] * x * x + c[1] * x * y + c[2] * y * y + c[3] * x

    def heisenberg(g, h):
        return g[0] * h[1]

    def section(g, h):
        return rho(g) + rho(h) - rho((g[0] + h[0], g[1] + h[1]))

    jobs = []
    for name, radius, value, kind in (
            ("cocycle-heisenberg-r4", 4, heisenberg, "heisenberg"),
            ("cocycle-section-r4", 4, section, "section"),
            ("cocycle-heisenberg-r5", 5, heisenberg, "heisenberg")):
        path = files.write(f"{name}.txt", _cocycle_file(radius, value,
                                                        letters))
        jobs.append(_job(name, ["cocycle-check", pres, path,
                                "--radius", str(radius)],
                         "cocycle", seed, letters=letters, radius=radius,
                         kind=kind, rho=c))
    for n in (16, 24, 32):
        rows = _skew_matrix(rng, n)
        slopes = _slopes(rng, n)
        mat = files.write(f"link{n}.mat", f"{n} {n}\n" + "".join(
            " ".join(map(str, r)) + "\n" for r in rows))
        slo = files.write(f"slopes{n}.txt", "".join(
            "*\n" if s is None else f"{s[0]}/{s[1]}\n" for s in slopes))
        jobs.append(_job(f"dehn-fill-{n}", ["dehn-fill", mat, slo],
                         "dehn_fill", seed, matrix=rows, slopes=slopes))
    return jobs


def geometry_jobs(files, seed):
    jobs = []
    for name, g, r in (("ball-f2-r8", "f2", 8), ("ball-z3-r10", "z3", 10),
                       ("ball-z2-r30", "z2", 30)):
        jobs.append(_job(name, ["ball", files.pres(g), "--radius", str(r)],
                         "ball", seed, group=g, letters=files.letters[g],
                         radius=r))
    z3 = files.letters["z3"]
    word = _spell("aaaabbbbcccc", z3)
    jobs.append(_job("geodesics-z3", ["geodesics", files.pres("z3"), word],
                     "geodesics", seed, letters=z3, exponents=[4, 4, 4],
                     budget=1000))
    for n in (4, 5):
        pres = files.pres("z2-rel-b")
        a, b = files.letters["z2-rel-b"]
        loop = a + b * n + a.upper() + b.upper() * n
        jobs.append(_job(f"electric-area-b{n}",
                         ["electric-area", pres, loop],
                         "electric_area", seed, n=n))
    jobs.append(_job("bcp-scan-f2-rel-b",
                     ["bcp-scan", files.pres("f2-rel-b"), "--radius", "6",
                      "--budget", "10000"], "bcp", seed, samples=10000))
    jobs.append(_job("thinness-z-r40",
                     ["thinness", files.pres("z"), "--radius", "40",
                      "--depth-cap", "6", "--budget", "2000"],
                     "thinness", seed, group="z", radius=40, depth_cap=6,
                     samples=2000, psi=3.0))
    jobs.append(_job("thinness-f2-rel-b",
                     ["thinness", files.pres("f2-rel-b"), "--radius", "3",
                      "--depth-cap", "3", "--budget", "300"],
                     "thinness", seed, group="f2-rel-b", radius=3,
                     depth_cap=3, samples=300, psi=3.0))
    jobs.append(_job("clip-track-z",
                     ["clip-track", files.pres("z"), "1", "--radius", "8",
                      "--depth-cap", "3"],
                     "clip_track", seed, radius=8, depth_cap=3, clip_depth=1,
                     pairs=20))
    jobs.append(_job("cusp-distance",
                     ["cusp-distance", "9", "0", "0", "--psi", "3"],
                     "cusp_distance", seed, shadow=9.0, i=0, k=0, psi=3.0))
    jobs.append(_job("hyp2-check", ["hyp2-check"], "hyp2", seed))
    for name, g in (("probe-s3", "s3"), ("probe-z3xz", "z3xz"),
                    ("probe-z2freez3", "z2freez3"),
                    ("probe-zfreez2", "zfreez2")):
        jobs.append(_job(name, ["ball", files.pres(g), "--radius", "3"],
                         "ball", seed, group=g, letters=files.letters[g],
                         radius=3))
    return jobs


def make_jobs(workload: str, seed: int, directory: Path, rel: str):
    """Write the inputs of one workload under ``directory`` (named ``rel``
    in argv, relative to the checkout root) and return its job list."""
    build = {"acceptor": acceptor_jobs, "algebra": algebra_jobs,
             "geometry": geometry_jobs}[workload]
    directory.mkdir(parents=True, exist_ok=True)
    files = _Files(random.Random(f"{workload}:{seed}"), directory, rel)
    return build(files, seed)
