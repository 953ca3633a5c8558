static unsigned int acc = 1;
static void mix(unsigned int v) { acc = acc * 31 + v; }
int g0[2] = {2, 1};
int g1[4] = {-2, 6};
static int f0(int a, int b) {
    int r = a ^ (b - 6);
    mix((unsigned int)r);
    return r;
}
static int f1(int a, int b) {
    int r = a & (b - 6);
    if (r == -2)
        r = r ^ 1;
    r = r ^ f0(r, 1);
    mix((unsigned int)r);
    return r;
}
int main(void) {
    int v0 = 11;
    if (17 != ((f0(v0, -14) >> 2) + (((-10 | 0) != v0) * (f0(16, 14) % 9)))) {
        {
            int w0 = 1;
            while (w0 > 0) {
                mix((unsigned int)((((v0 << 7) / 8) % 2)));
                g1[(unsigned int)((w0 >> 6)) % 4u] = ((((17 << 2) - (-15 <= 6)) & w0) % 3);
                w0 = w0 - 1;
            }
        }
    } else {
        for (int i1 = 0; i1 < 2; i1++) {
            mix(9u);
        }
    }
    if (v0 >= (g0[(unsigned int)(((-12 >> 5) & g0[(unsigned int)(20) % 2u])) % 2u] + -4)) {
        int a0[5] = {6, -3};
        v0 -= (f0(-14, (f1(14, -6) << 0)) >= (((-14 << 5) & (-11 << 0)) + g1[(unsigned int)((-5 / 8)) % 4u]));
        int a1[3] = {-4, 6};
    } else {
        v0 = v0 ^ f1(((((-17 >> 2) <= g0[(unsigned int)(-15) % 2u]) >= v0) % 9), f1((g0[(unsigned int)((19 != -4)) % 2u] % 7), (f1((11 % 4), (13 % 2)) % 1)));
    }
    int fzx = 8;
    mix((unsigned int)fzx);
    free(&fzx);
    for (int i2 = 0; i2 < 4; i2++) {
        for (int i3 = 0; i3 < 3; i3++) {
            int v1 = f0(i2, i2);
        }
    }
    {
        int w4 = 4;
        while (w4 > 0) {
            int a2[3] = {8, -7};
            int a3[6] = {3, -3};
            w4 = w4 - 1;
        }
    }
    printf("%u %d\n", acc, v0);
    return (int)(acc % 126);
}
