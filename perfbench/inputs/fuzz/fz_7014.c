static unsigned int acc = 1;
static void mix(unsigned int v) { acc = acc * 31 + v; }
int g0[5] = {9, -1};
int g1[2] = {8, -3};
int g2[5] = {-8, 4};
static int f0(int a, int b) {
    int r = a | (b + 2);
    mix((unsigned int)r);
    return r;
}
static int f1(int a, int b) {
    int r = a - (b ^ 1);
    r = r ^ f0(r, -2);
    mix((unsigned int)r);
    return r;
}
static int f2(int a, int b) {
    int r = a | (b ^ 8);
    if (r >= -2)
        r = r - 3;
    mix((unsigned int)r);
    return r;
}
int main(void) {
    int v0 = 11;
    int a0[5] = {-2, -2};
    if (a0[(unsigned int)(((-11 / 5) | (a0[(unsigned int)(16) % 5u] != (20 - -16)))) % 5u] != (g0[(unsigned int)(a0[(unsigned int)(v0) % 5u]) % 5u] >> 7)) {
        v0 = v0 ^ f2((v0 / 3), f1((((-19 / 5) ^ 5) | (5 - (9 + 4))), g0[(unsigned int)(3) % 5u]));
    } else {
        if (((f1(v0, f0(6, 13)) / 6) < v0) >= (f1((v0 / 7), ((-19 | 15) >> 7)) >> 3)) {
            v0 += a0[(unsigned int)(((-17 / 5) != v0)) % 5u];
        } else {
            int a1[6] = {3, -5};
            a0[(unsigned int)((((9 >> 4) >> 0) >> 3)) % 5u] = (8 << 2);
            unsigned int v1 = (unsigned int)f2((-4 + (a0[(unsigned int)(12) % 5u] + (6 / 3))), (((-8 + -9) >= -6) << 0));
        }
        v0 = v0 ^ f0((v0 >= v0), f2(18, f0(a0[(unsigned int)(a0[(unsigned int)(20) % 5u]) % 5u], f0(v0, a0[(unsigned int)(-12) % 5u]))));
        {
            int w0 = 5;
            while (w0 > 0) {
                v0 ^= 12;
                v0 -= ((((15 << 5) | -3) << 4) == f0(((-3 >> 6) < (9 ^ -13)), f1(v0, f1(3, 5))));
                int v2 = g2[(unsigned int)((((8 % 9) >> 3) / 1)) % 5u];
                w0 = w0 - 1;
            }
        }
    }
    if (g2[(unsigned int)((v0 >> 4)) % 5u] < (3 / 5)) {
        if ((((7 % 4) ^ f1(g2[(unsigned int)(0) % 5u], f0(7, 14))) > v0) > f0(f2(v0, (g1[(unsigned int)(5) % 2u] << 6)), a0[(unsigned int)((a0[(unsigned int)(16) % 5u] + f1(-10, -20))) % 5u])) {
            mix((unsigned int)(a0[(unsigned int)((((-7 / 4) != f1(-19, 19)) << 3)) % 5u]));
            mix(9u);
            g2[(unsigned int)(a0[(unsigned int)((f1(-7, 20) & f2(7, 9))) % 5u]) % 5u] = ((v0 % 5) % 4);
        } else {
            mix((unsigned int)(((((-8 * 0) + (-16 << 5)) > g2[(unsigned int)(v0) % 5u]) > ((g1[(unsigned int)(13) % 2u] % 6) == ((-15 % 7) << 3)))));
            mix(3u);
            mix((unsigned int)(v0));
        }
        int v3 = ((((17 << 2) << 7) - ((-1 & -9) / 4)) + ((v0 << 5) ^ a0[(unsigned int)((16 >> 5)) % 5u]));
    } else {
        int a2[5] = {4, 5};
        mix((unsigned int)((((v0 << 1) << 2) << 4)));
        for (int i1 = 0; i1 < 6; i1++) {
            int v4 = (f1(((8 % 5) ^ (14 < -2)), (-4 >> 3)) & (f0(v0, v0) + ((10 % 6) << 2)));
        }
    }
    if (((v0 << 5) | g1[(unsigned int)((v0 >> 6)) % 2u]) == a0[(unsigned int)((9 > f1(-20, f0(10, 19)))) % 5u]) {
        int v5 = (f1(((-7 % 2) / 4), ((9 <= 0) & (-4 >> 6))) << 0);
    }
    int a3[4] = {-3, -9};
    v0 = v0 ^ f1(v0, v0);
    printf("%u %d\n", acc, v0);
    return (int)(acc % 126);
}
