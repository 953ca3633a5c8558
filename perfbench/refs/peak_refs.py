#!/usr/bin/env python3
"""Reference outputs for the peak-exec workload.

Each function below is a small Python implementation of one of
MiniSulong's benchmark programs (src/tools/benchmark_programs.cc),
written from the algorithm, not from the program's output. The
problem sizes are chosen so that, warmed, no program dominates the
round (see perfbench/README.md).

Regenerate the committed file with:
    python3 perfbench/refs/peak_refs.py > perfbench/inputs/peak_expected.json
"""

import json
import math

# Fig. 16 order, then the two tier perf-gate kernels.
SIZES = [
    ("fannkuchredux", 6),
    ("fasta", 600),
    ("fastaredux", 10000),
    ("mandelbrot", 28),
    ("meteor", 1),
    ("nbody", 400),
    ("spectralnorm", 20),
    ("whetstone", 60),
    ("binarytrees", 6),
    ("calltower", 6000),
    ("pointerchase", 60),
]

U32 = 0xFFFFFFFF


def c_int(x):
    """Wrap to a 32-bit two's-complement int, as MiniSulong's int does."""
    x &= U32
    return x - (1 << 32) if x & 0x80000000 else x


def c_rem(a, m):
    """C's %, which truncates toward zero."""
    r = abs(a) % abs(m)
    return -r if a < 0 else r


def fannkuchredux(n):
    perm1 = list(range(n))
    count = [0] * n
    max_flips = checksum = perm_count = 0
    r = n
    while True:
        while r != 1:
            count[r - 1] = r
            r -= 1
        perm = perm1[:]
        flips = 0
        k = perm[0]
        while k != 0:
            perm[: k + 1] = perm[k::-1]
            flips += 1
            k = perm[0]
        max_flips = max(max_flips, flips)
        checksum += flips if perm_count % 2 == 0 else -flips
        perm_count += 1
        while True:
            if r == n:
                return "%d\nPfannkuchen(%d) = %d\n" % (checksum, n, max_flips)
            perm1.insert(r, perm1.pop(0))
            count[r] -= 1
            if count[r] > 0:
                break
            r += 1


class Lcg:
    """The benchmarks-game generator: seed = (seed*3877+29573) % 139968."""

    def __init__(self):
        self.seed = 42

    def next(self, scale):
        self.seed = (self.seed * 3877 + 29573) % 139968
        return scale * self.seed / 139968.0


IUB = [("a", 0.27), ("c", 0.12), ("g", 0.12), ("t", 0.27)] + [
    (c, 0.02) for c in "BDHKMNRSVWY"
]
HOMO = [("a", 0.3029549426680), ("c", 0.1979883004921),
        ("g", 0.1975473066391), ("t", 0.3015094502008)]
ALU = ("GGCCGGGCGCGGTGGCTCACGCCTGTAATCCCAGCACTTTGGGAGGCCGAGGCGGGCGGA"
       "TCACCTGAGGTCAGGAGTTCGAGACCAGCCTGGCCAACATGGTGAAACCCCGTCTCTACT"
       "AAAAATACAAAAATTAGCCGGGCGTGGTGGCGCGCGCCTGTAATCCCAGCTACTCGGGAG"
       "GCTGAGGCAGGAGAATCGCTTGAACCCGGGAGGCGGAGGTTGCAGTGAGCCGAGATCGCG"
       "CCACTGCACTCCAGCCTGGGCGACAGAGCGAGACTCCGTCTCAAAAA")


def lines_of(text):
    return "".join(text[i:i + 60] + "\n" for i in range(0, len(text), 60))


def cumulative(table):
    """make_cumulative() in place: the program rewrites its static table."""
    acc = 0.0
    for entry in table:
        acc += entry[1]
        entry[1] = acc


class Fasta:
    """fasta's static state: the random seed and the two probability
    tables, which every call of main() turns cumulative again."""

    def __init__(self):
        self.rng = Lcg()
        self.iub = [list(e) for e in IUB]
        self.homo = [list(e) for e in HOMO]

    def run(self, n):
        cumulative(self.iub)
        cumulative(self.homo)
        out = [">ONE Homo sapiens alu\n",
               lines_of((ALU * (2 * n // len(ALU) + 1))[: 2 * n])]
        for ident, desc, table, count in (
                ("TWO", "IUB ambiguity codes", self.iub, 3 * n),
                ("THREE", "Homo sapiens frequency", self.homo, 5 * n)):
            picked = []
            for _ in range(count):
                r = self.rng.next(1.0)
                k = 0
                while k < len(table) - 1 and table[k][1] < r:
                    k += 1
                picked.append(table[k][0])
            out.append(">%s %s\n" % (ident, desc))
            out.append(lines_of("".join(picked)))
        return "".join(out)


class FastaRedux:
    """fastaredux's static state: the random seed (the lookup table is
    rebuilt from constant probabilities on every call)."""

    def __init__(self):
        self.rng = Lcg()

    def run(self, n):
        lookup, acc, slot = [], 0.0, 0
        for i, (c, p) in enumerate(HOMO):
            acc += p
            end = 256 if i == 3 else int(acc * 256)
            lookup.extend(c * max(0, end - slot))
            slot = max(slot, end)
        picked = [lookup[int(self.rng.next(1.0) * 256)] for _ in range(n)]
        return ">THREE Homo sapiens frequency\n" + lines_of("".join(picked))


def fasta(n):
    return Fasta().run(n)


def fastaredux(n):
    return FastaRedux().run(n)


def mandelbrot(n):
    checksum = bit = byte_acc = 0
    for y in range(n):
        ci = 2.0 * y / n - 1.0
        for x in range(n):
            cr = 2.0 * x / n - 1.5
            zr = zi = 0.0
            in_set = 1
            for _ in range(50):
                zr, zi = zr * zr - zi * zi + cr, 2.0 * zr * zi + ci
                if zr * zr + zi * zi > 4.0:
                    in_set = 0
                    break
            byte_acc = byte_acc * 2 + in_set
            bit += 1
            if bit == 8:
                checksum = c_rem(c_int(checksum * 31 + byte_acc), 1000000007)
                byte_acc = bit = 0
        if bit:
            checksum = c_rem(c_int(checksum * 31 + byte_acc), 1000000007)
            byte_acc = bit = 0
    return "mandelbrot(%d) checksum=%d\n" % (n, checksum)


def meteor(iterations):
    """Exact covers of a 5x4 board by the five tetrominoes (fixed
    orientations, all translations), counted by brute force over cell
    sets rather than bitboard backtracking."""
    w, h = 5, 4
    shapes = [
        [[(0, 0), (1, 0), (0, 1), (1, 1)]],
        [[(0, 0), (1, 0), (2, 0), (3, 0)], [(0, 0), (0, 1), (0, 2), (0, 3)]],
        [[(1, 0), (2, 0), (0, 1), (1, 1)], [(0, 0), (0, 1), (1, 1), (1, 2)]],
        [[(0, 0), (0, 1), (0, 2), (1, 2)], [(0, 0), (1, 0), (2, 0), (0, 1)]],
        [[(0, 0), (1, 0), (2, 0), (1, 1)], [(1, 0), (0, 1), (1, 1), (2, 1)]],
    ]
    placements = []
    for variants in shapes:
        cells = set()
        for v in variants:
            for dy in range(h):
                for dx in range(w):
                    moved = [(x + dx, y + dy) for x, y in v]
                    if all(0 <= x < w and 0 <= y < h for x, y in moved):
                        cells.add(frozenset(moved))
        placements.append(cells)

    def count(shape, used):
        if shape == len(placements):
            return 1 if len(used) == w * h else 0
        return sum(count(shape + 1, used | p)
                   for p in placements[shape] if not used & p)

    # Every iteration recomputes the same count; the program prints the
    # last one.
    solutions = count(0, frozenset()) if iterations > 0 else 0
    return "%d solutions found\n" % solutions


def nbody(n):
    pi = 3.141592653589793
    solar_mass = 4.0 * pi * pi
    days = 365.24
    bodies = [
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, solar_mass],
        [4.84143144246472090, -1.16032004402742839, -0.103622044471123109,
         0.00166007664274403694 * days, 0.00769901118419740425 * days,
         -0.0000690460016972063023 * days,
         0.000954791938424326609 * solar_mass],
        [8.34336671824457987, 4.12479856412430479, -0.403523417114321381,
         -0.00276742510726862411 * days, 0.00499852801234917238 * days,
         0.0000230417297573763929 * days,
         0.000285885980666130812 * solar_mass],
        [12.8943695621391310, -15.1111514016986312, -0.223307578892655734,
         0.00296460137564761618 * days, 0.00237847173959480950 * days,
         -0.0000296589568540237556 * days,
         0.0000436624404335156298 * solar_mass],
        [15.3796971148509165, -25.9193146099879641, 0.179258772950371181,
         0.00268067772490389322 * days, 0.00162824170038242295 * days,
         -0.0000951592254519715870 * days,
         0.0000515138902046611451 * solar_mass],
    ]
    px = py = pz = 0.0
    for b in bodies:
        px += b[3] * b[6]
        py += b[4] * b[6]
        pz += b[5] * b[6]
    bodies[0][3] = -px / solar_mass
    bodies[0][4] = -py / solar_mass
    bodies[0][5] = -pz / solar_mass

    def energy():
        e = 0.0
        for i, a in enumerate(bodies):
            e += 0.5 * a[6] * (a[3] * a[3] + a[4] * a[4] + a[5] * a[5])
            for b in bodies[i + 1:]:
                dx, dy, dz = a[0] - b[0], a[1] - b[1], a[2] - b[2]
                e -= a[6] * b[6] / math.sqrt(dx * dx + dy * dy + dz * dz)
        return e

    out = "%.9f\n" % energy()
    dt = 0.01
    for _ in range(n):
        for i, a in enumerate(bodies):
            for b in bodies[i + 1:]:
                dx, dy, dz = a[0] - b[0], a[1] - b[1], a[2] - b[2]
                d2 = dx * dx + dy * dy + dz * dz
                mag = dt / (d2 * math.sqrt(d2))
                a[3] -= dx * b[6] * mag
                a[4] -= dy * b[6] * mag
                a[5] -= dz * b[6] * mag
                b[3] += dx * a[6] * mag
                b[4] += dy * a[6] * mag
                b[5] += dz * a[6] * mag
        for b in bodies:
            b[0] += dt * b[3]
            b[1] += dt * b[4]
            b[2] += dt * b[5]
    return out + "%.9f\n" % energy()


def spectralnorm(n):
    def a(i, j):
        return 1.0 / ((i + j) * (i + j + 1) // 2 + i + 1)

    def av(v):
        return [sum(a(i, j) * v[j] for j in range(n)) for i in range(n)]

    def atv(v):
        return [sum(a(j, i) * v[j] for j in range(n)) for i in range(n)]

    def sum_in_order(terms):
        acc = 0.0
        for t in terms:
            acc += t
        return acc

    u = [1.0] * n
    for _ in range(10):
        v = atv(av(u))
        u = atv(av(v))
    vbv = sum_in_order(u[i] * v[i] for i in range(n))
    vv = sum_in_order(v[i] * v[i] for i in range(n))
    return "%.9f\n" % math.sqrt(vbv / vv)


def whetstone(loop):
    t, t1, t2 = 0.499975, 0.50025, 2.0
    x1, x2, x3, x4 = 1.0, -1.0, -1.0, -1.0
    for _ in range(10 * loop):
        x1 = (x1 + x2 + x3 - x4) * t
        x2 = (x1 + x2 - x3 + x4) * t
        x3 = (x1 - x2 + x3 + x4) * t
        x4 = (-x1 + x2 + x3 + x4) * t
    e = [1.0, -1.0, -1.0, -1.0]

    def mix(e, last_scale):
        e[0] = (e[0] + e[1] + e[2] - e[3]) * t
        e[1] = (e[0] + e[1] - e[2] + e[3]) * t
        e[2] = (e[0] - e[1] + e[2] + e[3]) * t
        e[3] = last_scale(-e[0] + e[1] + e[2] + e[3])

    for _ in range(12 * loop):
        mix(e, lambda s: s * t)
    for _ in range(14 * loop):
        for _ in range(6):
            mix(e, lambda s: s / t2)
    x = y = 0.5
    for _ in range(2 * loop):
        x = t * math.atan(t2 * math.sin(x) * math.cos(x) /
                          (math.cos(x + y) + math.cos(x - y) - 1.0))
        y = t * math.atan(t2 * math.sin(y) * math.cos(y) /
                          (math.cos(x + y) + math.cos(x - y) - 1.0))
    x = y = 1.0
    z = 1.0
    for _ in range(12 * loop):
        px1 = t * (x + y)
        py1 = t * (px1 + y)
        z = (px1 + py1) / t2
    x = 0.75
    for _ in range(10 * loop):
        x = math.sqrt(math.exp(math.log(x) / t1))
    return "%.6f %.6f %.6f %.6f\n%.6f %.6f\n" % (x1, e[0], y, x, z, t)


def binarytrees(max_depth):
    # A complete tree of depth d has 2^(d+1) - 1 nodes, which is what
    # check() counts.
    def nodes(d):
        return 2 ** (d + 1) - 1

    min_depth = 4
    stretch = max_depth + 1
    out = ["stretch tree of depth %d\t check: %d\n" % (stretch, nodes(stretch))]
    for depth in range(min_depth, max_depth + 1, 2):
        iterations = 1 << (max_depth - depth + min_depth)
        out.append("%d\t trees of depth %d\t check: %d\n"
                   % (iterations, depth, iterations * nodes(depth)))
    out.append("long lived tree of depth %d\t check: %d\n"
               % (max_depth, nodes(max_depth)))
    return "".join(out)


def calltower(n):
    def leaf_inc(x):
        return x + 1

    def leaf_mix(x):
        return (x ^ 29) - (x >> 3)

    def step_a(x):
        return leaf_inc(x) + leaf_mix(x)

    def step_b(x):
        return leaf_mix(leaf_inc(x)) - leaf_inc(x >> 1)

    def tower(x):
        return step_a(step_b(x)) + step_b(step_a(x))

    acc = 1
    for base in range(0, n, 500):
        for i in range(500):
            acc = (acc * 31 + (tower((base + i) & 0xFFFF) & U32)) & U32
    return "calltower(%d) = %d\n" % (n, acc)


def pointerchase(rounds):
    # Nodes are pushed at the head, so the list runs from value 511&63
    # down to 0; every traversal bumps each node's visit count.
    values = [i & 63 for i in range(511, -1, -1)]
    total = 0
    for r in range(rounds):
        visits = r + 1
        total += sum(v + (visits & 1) for v in values)
    return "pointerchase(%d) = %d\n" % (rounds, total)


# Warmed runs re-execute main() in one process, and MiniSulong keeps a
# module's globals across those runs. Only fasta and fastaredux read
# static state that an earlier run wrote, so only they print something
# different on every run; for them the file lists a digest per run.
RERUNS = 600
STATEFUL = {"fasta": Fasta, "fastaredux": FastaRedux}


def fnv1a64(text):
    h = 0xCBF29CE484222325
    for byte in text.encode():
        h = ((h ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return "%016x" % h


def main():
    programs = []
    for name, size in SIZES:
        entry = {"name": name, "args": [str(size)],
                 "output": globals()[name](size)}
        if name in STATEFUL:
            state = STATEFUL[name]()
            entry["rerun_fnv1a64"] = [fnv1a64(state.run(size))
                                      for _ in range(RERUNS)]
        programs.append(entry)
    print(json.dumps({"programs": programs}, indent=1))


if __name__ == "__main__":
    main()
