static unsigned int acc = 1;
static void mix(unsigned int v) { acc = acc * 31 + v; }
int g0[5] = {3, 7};
static int f0(int a, int b) {
    int r = a | (b + 7);
    mix((unsigned int)r);
    return r;
}
static int f1(int a, int b) {
    int r = a | (b | 2);
    r = r ^ f0(r, -4);
    mix((unsigned int)r);
    return r;
}
static int f2(int a, int b) {
    int r = a * (b ^ 7);
    if (r == -1)
        r = r + 7;
    mix((unsigned int)r);
    return r;
}
int main(void) {
    int v0 = 11;
    if (v0 != (-10 & 16)) {
        v0 ^= g0[(unsigned int)(f1((f2(4, 18) >> 2), (v0 - v0))) % 5u];
        g0[(unsigned int)(f1(-15, (-9 / 1))) % 5u] = v0;
        mix((unsigned int)(v0));
    }
    unsigned int v1 = (unsigned int)f0(f1(v0, -1), g0[(unsigned int)(f1(f0(-12, -15), (8 % 7))) % 5u]);
    if (g0[(unsigned int)(-18) % 5u] == f1(g0[(unsigned int)((-8 % 3)) % 5u], 17)) {
        for (int i0 = 0; i0 < 3; i0++) {
            int v2 = g0[(unsigned int)((g0[(unsigned int)((int)v1) % 5u] << 3)) % 5u];
            mix((unsigned int)(i0));
        }
        v0 = v0 ^ f2((f2((f0(-1, 19) + g0[(unsigned int)(-6) % 5u]), f1(g0[(unsigned int)(-1) % 5u], (-17 >= 0))) * g0[(unsigned int)((g0[(unsigned int)(10) % 5u] % 9)) % 5u]), (((5 % 9) >> 3) << 2));
        mix((unsigned int)(f0((f1(f0(19, -15), v0) - v0), (int)v1)));
    } else {
        v0 = v0 ^ f0(((int)v1 != -16), v0);
        unsigned int v3 = (unsigned int)g0[(unsigned int)(16) % 5u];
    }
    v1 -= ((unsigned int)(f2((-2 & -10), f1(14, -16)) < ((18 | -3) << 7)) / 6u);
    g0[(unsigned int)(f1(f0(f2(-4, -12), (18 << 4)), (f2(6, 15) << 1))) % 5u] = 11;
    {
        int w1 = 2;
        while (w1 > 0) {
            g0[(unsigned int)((6 - (f2(8, 5) << 7))) % 5u] = f0(-2, (((19 * 14) % 7) | w1));
            {
                int w2 = 3;
                while (w2 > 0) {
                    unsigned int v4 = v1;
                    int a0[2] = {1, 4};
                    w2 = w2 - 1;
                }
            }
            w1 = w1 - 1;
        }
    }
    v1 ^= (unsigned int)v0;
    printf("%u %d\n", acc, v0);
    return (int)(acc % 126);
}
