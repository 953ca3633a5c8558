static unsigned int acc = 1;
static void mix(unsigned int v) { acc = acc * 31 + v; }
int g0[4] = {8, 1};
static int f0(int a, int b) {
    int r = a & (b | 4);
    if (r >= -2)
        r = r | 4;
    r = r + 4;
    mix((unsigned int)r);
    return r;
}
static int f1(int a, int b) {
    int r = a & (b + 3);
    if (r <= -1)
        r = r - 4;
    mix((unsigned int)r);
    return r;
}
static int f2(int a, int b) {
    int r = a & (b * 8);
    mix((unsigned int)r);
    return r;
}
static void fz_drop(int *p) { free(p); }
int main(void) {
    int v0 = 11;
    v0 = v0 ^ f1((19 / 2), ((g0[(unsigned int)(g0[(unsigned int)(3) % 4u]) % 4u] << 0) > v0));
    v0 = v0 ^ f0((v0 << 7), (g0[(unsigned int)(f0((-12 % 5), (-17 > 15))) % 4u] + (((16 + -14) | (12 / 3)) <= (-8 >= (-10 % 2)))));
    unsigned int v1 = (unsigned int)v0;
    for (int i0 = 0; i0 < 6; i0++) {
        v1 += (unsigned int)(((v0 ^ f1(5, 7)) << 2) == f1((g0[(unsigned int)(-14) % 4u] / 9), ((-17 >> 4) >> 6)));
    }
    for (int i1 = 0; i1 < 4; i1++) {
        if (((i1 >= ((9 ^ -13) >> 7)) % 3) == f2(g0[(unsigned int)(((14 << 0) >= v0)) % 4u], g0[(unsigned int)(((-8 % 7) / 2)) % 4u])) {
            mix((unsigned int)(g0[(unsigned int)(((g0[(unsigned int)(5) % 4u] % 6) / 5)) % 4u]));
            mix(3u);
            g0[(unsigned int)(f0((f1(-15, 19) >> 7), i1)) % 4u] = g0[(unsigned int)(g0[(unsigned int)(2) % 4u]) % 4u];
        }
        {
            int w2 = 2;
            while (w2 > 0) {
                unsigned int v2 = (unsigned int)w2;
                w2 = w2 - 1;
            }
        }
        g0[(unsigned int)((i1 / 3)) % 4u] = (g0[(unsigned int)(g0[(unsigned int)(f2(4, 17)) % 4u]) % 4u] & (int)v1);
    }
    if (f1(((g0[(unsigned int)(-10) % 4u] | (-6 >= 0)) < f1(g0[(unsigned int)(12) % 4u], f0(-15, 19))), (12 ^ (g0[(unsigned int)(15) % 4u] >= -19))) != f0((((1 >> 6) >> 0) & ((-2 / 6) - (7 > -4))), g0[(unsigned int)(v0) % 4u])) {
        int a0[3] = {4, -1};
        int a1[2] = {6, -7};
    } else {
        unsigned int v3 = (unsigned int)f1(f2((f1(-14, 11) * (7 << 1)), (-11 * v0)), (int)v1);
        if (v0 >= (v0 * g0[(unsigned int)(g0[(unsigned int)(3) % 4u]) % 4u])) {
            v3 -= (unsigned int)g0[(unsigned int)(f1((f0(-15, -13) >> 7), ((15 % 5) >= (2 << 2)))) % 4u];
        } else {
            g0[(unsigned int)(((int)v3 >> 3)) % 4u] = ((19 % 3) % 4);
        }
        g0[(unsigned int)(g0[(unsigned int)(-18) % 4u]) % 4u] = 1;
    }
    int a2[2] = {-8, -4};
    int *fzu = malloc(sizeof(int) * 3);
    fzu[0] = 9;
    fz_drop(fzu);
    mix((unsigned int)fzu[0]);
    {
        int w3 = 3;
        while (w3 > 0) {
            int a3[4] = {-9, -3};
            w3 = w3 - 1;
        }
    }
    {
        int w4 = 2;
        while (w4 > 0) {
            v1 = ((unsigned int)g0[(unsigned int)(((-2 << 6) < w4)) % 4u] / 3u);
            w4 = w4 - 1;
        }
    }
    int a4[4] = {1, 2};
    printf("%u %d\n", acc, v0);
    return (int)(acc % 126);
}
