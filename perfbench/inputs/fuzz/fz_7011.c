static unsigned int acc = 1;
static void mix(unsigned int v) { acc = acc * 31 + v; }
int g0[6] = {-1, 7};
int g1[5] = {-3, 1};
int g2[6] = {-7, 9};
static int f0(int a, int b) {
    int r = a ^ (b - 2);
    mix((unsigned int)r);
    return r;
}
static int f1(int a, int b) {
    int r = a - (b ^ 6);
    mix((unsigned int)r);
    return r;
}
int main(void) {
    int v0 = 11;
    v0 = (-1 % 3);
    int v1 = ((g2[(unsigned int)(f0(10, 9)) % 6u] / 1) / 9);
    mix((unsigned int)((v1 ^ f0(v0, ((15 % 6) >= g0[(unsigned int)(6) % 6u])))));
    if (6 != (15 / 3)) {
        int v2 = f1(g0[(unsigned int)(8) % 6u], v1);
        {
            int w0 = 5;
            while (w0 > 0) {
                mix(3u);
                mix(5u);
                w0 = w0 - 1;
            }
        }
    }
    for (int i1 = 0; i1 < 5; i1++) {
        for (int i2 = 0; i2 < 6; i2++) {
            int v3 = ((v0 * ((17 <= -18) << 5)) ^ (g1[(unsigned int)((19 & -20)) % 5u] << 1));
            mix((unsigned int)(f1((((-16 >> 3) * v3) << 5), v1)));
        }
        if ((7 % 6) < v0) {
            v1 -= ((((-19 << 5) << 4) / 1) % 8);
        } else {
            int v4 = (v1 <= (g2[(unsigned int)(i1) % 6u] % 8));
            mix((unsigned int)((g1[(unsigned int)(((14 | -12) << 7)) % 5u] | (((9 >= 20) * 19) == f0(g1[(unsigned int)(-10) % 5u], (7 & 2))))));
        }
        if (f1((v0 << 6), v1) < 9) {
            v1 ^= g1[(unsigned int)((-9 != v1)) % 5u];
        } else {
            v0 ^= ((((17 / 9) >> 2) % 4) >= i1);
        }
    }
    g2[(unsigned int)((((-8 << 5) == (12 == 4)) >> 0)) % 6u] = ((((-20 <= 1) != v1) << 0) / 6);
    for (int i3 = 0; i3 < 3; i3++) {
        int a0[4] = {8, -3};
        mix((unsigned int)(((((8 % 5) >> 3) >> 7) - (i3 / 3))));
    }
    printf("%u %d\n", acc, v0);
    return (int)(acc % 126);
}
