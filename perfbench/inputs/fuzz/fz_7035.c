static unsigned int acc = 1;
static void mix(unsigned int v) { acc = acc * 31 + v; }
int g0[3] = {-6, 9};
int g1[2] = {6, 5};
int g2[4] = {-9, -1};
static int f0(int a, int b) {
    int r = a & (b ^ 5);
    r = r + 2;
    mix((unsigned int)r);
    return r;
}
static int f1(int a, int b) {
    int r = a - (b * 5);
    if (r > -3)
        r = r - 2;
    r = r ^ f0(r, 5);
    mix((unsigned int)r);
    return r;
}
static void fz_poke(int *p, int i) { p[i] = 42; }
int main(void) {
    int v0 = 11;
    if ((f1(-2, (g1[(unsigned int)(-7) % 2u] != v0)) == f1(((5 * 11) < -10), ((4 / 7) - (-19 << 3)))) > 14) {
        if (((g0[(unsigned int)((-11 % 6)) % 3u] / 4) / 5) < 8) {
            v0 = v0 ^ f0(((((1 << 0) & f0(15, 2)) != ((17 & -10) << 7)) * v0), f1(((f0(-5, -15) <= g0[(unsigned int)(20) % 3u]) % 3), ((f0(-7, -4) % 1) - f0((-7 > -14), (-11 << 4)))));
        } else {
            g0[(unsigned int)((g0[(unsigned int)(7) % 3u] < g0[(unsigned int)(f1(-6, -12)) % 3u])) % 3u] = f0((((14 | 14) == (-13 << 3)) % 3), (((16 / 6) % 8) < ((-6 / 3) == 17)));
            int v1 = (f1((3 + g2[(unsigned int)(-10) % 4u]), ((3 % 7) % 6)) <= -10);
            v0 = v0 ^ f0(v0, (v1 << 1));
        }
        for (int i0 = 0; i0 < 5; i0++) {
            mix(3u);
            int a0[5] = {-8, 0};
        }
        v0 -= 1;
    }
    v0 = v0 ^ f0((((f0(8, 7) * f0(18, -19)) | (v0 >> 4)) << 3), 16);
    int a1[6] = {2, 9};
    v0 = (15 < (a1[(unsigned int)((-4 - -15)) % 6u] % 5));
    v0 = v0 ^ f0(-8, (v0 % 9));
    int *fzh = malloc(sizeof(int) * 5);
    for (int fzi = 0; fzi < 5; fzi++) fzh[fzi] = fzi + 1;
    fz_poke(fzh, -1);
    free(fzh);
    printf("%u %d\n", acc, v0);
    return (int)(acc % 126);
}
