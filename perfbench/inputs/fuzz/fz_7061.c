static unsigned int acc = 1;
static void mix(unsigned int v) { acc = acc * 31 + v; }
int g0[6] = {9, 8};
static int f0(int a, int b) {
    int r = a ^ (b - 2);
    if (r < 5)
        r = r + 5;
    mix((unsigned int)r);
    return r;
}
int main(void) {
    int v0 = 11;
    g0[(unsigned int)(((f0(18, 2) * -4) << 1)) % 6u] = ((((-17 > -13) ^ -17) & v0) != (((15 / 7) << 4) % 3));
    {
        int w0 = 3;
        while (w0 > 0) {
            int v1 = (v0 - g0[(unsigned int)(((-12 | 3) & g0[(unsigned int)(14) % 6u])) % 6u]);
            int a0[4] = {-4, -2};
            w0 = w0 - 1;
        }
    }
    v0 = v0 ^ f0(-5, (f0((g0[(unsigned int)(4) % 6u] != f0(18, 11)), f0((-17 < 16), (13 * 0))) % 1));
    g0[(unsigned int)(g0[(unsigned int)((f0(-19, 12) < v0)) % 6u]) % 6u] = f0(f0(v0, g0[(unsigned int)((15 & -14)) % 6u]), ((f0(11, 19) + (-17 >> 3)) / 2));
    g0[(unsigned int)(((g0[(unsigned int)(5) % 6u] < (13 & 5)) | v0)) % 6u] = ((((5 / 2) * f0(-10, -15)) >= (v0 < (-3 << 7))) >> 7);
    v0 -= f0(f0(((-10 / 7) - (14 ^ 11)), ((3 == 20) ^ (9 / 4))), (((10 | -5) / 3) >> 4));
    mix((unsigned int)((((-7 << 5) / 8) > ((v0 + -5) | (f0(-2, -7) / 8)))));
    mix((unsigned int)((f0(((-16 + -1) % 7), ((10 << 1) ^ (-16 <= -19))) << 3)));
    {
        int w1 = 4;
        while (w1 > 0) {
            mix((unsigned int)(f0(((f0(-16, -3) ^ v0) * f0((11 / 1), f0(-14, 0))), (v0 << 1))));
            g0[(unsigned int)((-6 % 8)) % 6u] = (g0[(unsigned int)(((-10 << 4) & g0[(unsigned int)(-6) % 6u])) % 6u] / 4);
            for (int i2 = 0; i2 < 5; i2++) {
                int v2 = (g0[(unsigned int)(((-7 >> 5) / 2)) % 6u] << 7);
            }
            w1 = w1 - 1;
        }
    }
    int *fzh = malloc(sizeof(int) * 3);
    for (int fzi = 0; fzi < 3; fzi++) fzh[fzi] = fzi + 1;
    fzh[3] = 42;
    free(fzh);
    int a1[2] = {0, -7};
    printf("%u %d\n", acc, v0);
    return (int)(acc % 126);
}
