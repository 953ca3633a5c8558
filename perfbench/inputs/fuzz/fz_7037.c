static unsigned int acc = 1;
static void mix(unsigned int v) { acc = acc * 31 + v; }
int g0[3] = {3, -4};
int g1[6] = {-9, 8};
int g2[4] = {-5, -7};
static int f0(int a, int b) {
    int r = a * (b | 9);
    if (r > -5)
        r = r * 2;
    mix((unsigned int)r);
    return r;
}
static int f1(int a, int b) {
    int r = a + (b ^ 9);
    if (r < 2)
        r = r & 7;
    r = r ^ f0(r, -3);
    mix((unsigned int)r);
    return r;
}
static int f2(int a, int b) {
    int r = a | (b ^ 6);
    if (r <= 5)
        r = r | 1;
    mix((unsigned int)r);
    return r;
}
static void fz_drop(int *p) { free(p); }
int main(void) {
    int v0 = 11;
    if (((g1[(unsigned int)((-2 % 5)) % 6u] < ((19 >> 5) * (-15 * 4))) << 0) == f2((4 % 7), g1[(unsigned int)(((5 / 4) < f1(16, 9))) % 6u])) {
        g1[(unsigned int)((((-10 / 6) << 6) == ((6 > -20) | (-10 ^ -9)))) % 6u] = (11 - (v0 < ((-6 - 10) - (-18 / 2))));
    } else {
        int v1 = (((f1(15, 14) / 4) ^ (f0(17, 6) % 4)) >> 3);
        for (int i0 = 0; i0 < 2; i0++) {
            mix((unsigned int)(g0[(unsigned int)(f0(v0, (i0 != 4))) % 3u]));
            g2[(unsigned int)((g2[(unsigned int)(g0[(unsigned int)(5) % 3u]) % 4u] / 2)) % 4u] = (-15 >> 7);
            v0 ^= ((((-10 + 10) << 0) - (i0 / 8)) / 2);
        }
        for (int i1 = 0; i1 < 1; i1++) {
            mix(5u);
            mix(3u);
        }
    }
    mix((unsigned int)((f1((4 > f2(-17, -16)), g2[(unsigned int)(v0) % 4u]) / 4)));
    int v2 = (g0[(unsigned int)(((-7 + 11) & v0)) % 3u] % 5);
    v2 = ((((-15 & 19) > (16 << 4)) % 3) < (((-18 < 11) >> 1) == f1((14 - -14), (-18 - -11))));
    v0 = (((-17 == (-2 & 8)) >> 1) + (((11 | 7) / 7) >> 6));
    v0 = 11;
    v0 = v0 ^ f0((f1(((8 >> 6) > (10 > -16)), (g0[(unsigned int)(15) % 3u] == g0[(unsigned int)(7) % 3u])) / 2), ((g1[(unsigned int)((6 + 16)) % 6u] & ((-9 % 8) * v2)) + f1(v2, ((-7 / 9) >> 2))));
    for (int i2 = 0; i2 < 4; i2++) {
        v2 += f2(11, 18);
        g2[(unsigned int)(f2((-11 % 4), (f1(-6, -8) % 8))) % 4u] = (12 == f2((g2[(unsigned int)(-19) % 4u] % 7), ((-4 >> 0) / 9)));
        {
            int w3 = 2;
            while (w3 > 0) {
                v0 = v0 ^ f2(i2, (((g0[(unsigned int)(-16) % 3u] % 4) / 2) << 5));
                mix((unsigned int)(((f2((13 << 1), v0) > g0[(unsigned int)((-13 - -5)) % 3u]) >> 0)));
                w3 = w3 - 1;
            }
        }
    }
    int *fzu = malloc(sizeof(int) * 4);
    fzu[0] = 4;
    fz_drop(fzu);
    fzu[0] = 7;
    printf("%u %d\n", acc, v0);
    return (int)(acc % 126);
}
