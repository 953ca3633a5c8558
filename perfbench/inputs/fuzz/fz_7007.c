static unsigned int acc = 1;
static void mix(unsigned int v) { acc = acc * 31 + v; }
int g0[3] = {-4, -6};
static int f0(int a, int b) {
    int r = a & (b + 8);
    mix((unsigned int)r);
    return r;
}
static int f1(int a, int b) {
    int r = a & (b ^ 9);
    r = r ^ f0(r, 5);
    mix((unsigned int)r);
    return r;
}
static int f2(int a, int b) {
    int r = a * (b - 8);
    r = r ^ f0(r, -7);
    mix((unsigned int)r);
    return r;
}
int main(void) {
    int v0 = 11;
    if ((v0 > f1(17, 10)) == v0) {
        v0 = v0 ^ f2((1 ^ ((f0(-9, -20) % 2) < f1((-19 + 1), f1(-2, -2)))), v0);
        g0[(unsigned int)((-1 != (f2(14, -18) % 6))) % 3u] = v0;
    } else {
        v0 ^= ((f0((-15 >= -2), (-17 | -7)) | (g0[(unsigned int)(2) % 3u] - v0)) | f2((8 * (-8 > 4)), v0));
        mix((unsigned int)((9 << 6)));
    }
    {
        int w0 = 3;
        while (w0 > 0) {
            if ((((-1 / 2) > ((9 << 6) >> 1)) % 6) != ((((-10 & -16) > (-4 ^ 17)) % 4) << 2)) {
                int a0[2] = {8, -4};
            }
            mix((unsigned int)((f0((g0[(unsigned int)(-17) % 3u] % 2), -13) >> 5)));
            w0 = w0 - 1;
        }
    }
    unsigned int v1 = (unsigned int)f2((((-10 >> 2) <= 16) - g0[(unsigned int)((-19 ^ -5)) % 3u]), v0);
    int v2 = ((((5 / 5) % 6) >= (int)v1) >> 3);
    g0[(unsigned int)(g0[(unsigned int)(v0) % 3u]) % 3u] = g0[(unsigned int)(((f1(1, 11) & (16 / 3)) <= (int)v1)) % 3u];
    if (-20 <= (v2 % 5)) {
        v0 += 13;
        mix((unsigned int)((f2(f1(f2(8, 4), f1(12, -9)), g0[(unsigned int)(-18) % 3u]) ^ f2(g0[(unsigned int)((-3 ^ -19)) % 3u], f0((-15 % 3), 18)))));
        {
            int w1 = 1;
            while (w1 > 0) {
                g0[(unsigned int)(((v0 | f0(-11, -3)) % 5)) % 3u] = (g0[(unsigned int)(g0[(unsigned int)((-1 / 4)) % 3u]) % 3u] % 3);
                w1 = w1 - 1;
            }
        }
    } else {
        v2 -= g0[(unsigned int)(v0) % 3u];
        int a1[2] = {-3, -5};
    }
    v0 -= ((-8 % 7) >= (10 < (v2 - (5 / 6))));
    int *fzp = malloc(sizeof(int) * 4);
    fzp[1] = 2;
    free(fzp + 1);
    printf("%u %d\n", acc, v0);
    return (int)(acc % 126);
}
