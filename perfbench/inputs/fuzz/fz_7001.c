static unsigned int acc = 1;
static void mix(unsigned int v) { acc = acc * 31 + v; }
int g0[2] = {9, -1};
int g1[5] = {2, 5};
static int f0(int a, int b) {
    int r = a + (b | 5);
    r = r + 5;
    mix((unsigned int)r);
    return r;
}
static int f1(int a, int b) {
    int r = a * (b + 8);
    mix((unsigned int)r);
    return r;
}
static int f2(int a, int b) {
    int r = a | (b * 8);
    if (r > 4)
        r = r | 5;
    r = r ^ f0(r, -3);
    mix((unsigned int)r);
    return r;
}
int main(void) {
    int v0 = 11;
    v0 ^= (((g0[(unsigned int)(20) % 2u] / 6) / 8) <= (10 & v0));
    v0 ^= f0((((-10 ^ -12) / 5) | (g0[(unsigned int)(7) % 2u] <= v0)), (((-18 != 6) >> 1) & g0[(unsigned int)(f0(2, -2)) % 2u]));
    g0[(unsigned int)((g0[(unsigned int)((3 % 6)) % 2u] << 4)) % 2u] = f2((-11 % 9), g1[(unsigned int)(-3) % 5u]);
    mix((unsigned int)(((((3 / 8) % 1) << 1) / 2)));
    for (int i0 = 0; i0 < 4; i0++) {
        g1[(unsigned int)(f0(((12 == 13) - g1[(unsigned int)(-17) % 5u]), (f0(16, -14) / 6))) % 5u] = (g0[(unsigned int)((f1(7, -6) >> 4)) % 2u] != i0);
        int v1 = ((((-10 % 9) / 5) ^ f2((-2 ^ -20), (3 + -10))) <= f2(((13 == 19) == (-6 & 11)), i0));
        {
            int w1 = 2;
            while (w1 > 0) {
                int a0[5] = {4, 4};
                int v2 = (((v1 >> 1) >> 0) ^ v0);
                w1 = w1 - 1;
            }
        }
    }
    mix((unsigned int)(v0));
    {
        int w2 = 1;
        while (w2 > 0) {
            v0 = v0 ^ f2(f2((((20 & 2) != (11 / 8)) & v0), ((g0[(unsigned int)(-3) % 2u] + (-6 / 2)) / 9)), f2(g1[(unsigned int)((g1[(unsigned int)(9) % 5u] >= 14)) % 5u], (((5 % 6) + -18) != ((15 >> 2) >> 2))));
            mix((unsigned int)(((((20 - -8) % 5) == f0(f0(14, -16), v0)) << 2)));
            w2 = w2 - 1;
        }
    }
    unsigned int v3 = ((unsigned int)f1(((-12 >> 0) >> 6), f2((-4 >> 7), 10)) % 3u);
    int v4 = v0;
    printf("%u %d\n", acc, v0);
    return (int)(acc % 126);
}
