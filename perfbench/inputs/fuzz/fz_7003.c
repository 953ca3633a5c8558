static unsigned int acc = 1;
static void mix(unsigned int v) { acc = acc * 31 + v; }
int g0[2] = {1, -8};
int g1[5] = {-4, 3};
int g2[6] = {6, 6};
static int f0(int a, int b) {
    int r = a ^ (b + 9);
    if (r != -1)
        r = r ^ 5;
    mix((unsigned int)r);
    return r;
}
static int f1(int a, int b) {
    int r = a - (b ^ 3);
    if (r <= 4)
        r = r | 4;
    r = r ^ f0(r, -3);
    mix((unsigned int)r);
    return r;
}
static int f2(int a, int b) {
    int r = a - (b - 1);
    if (r != -1)
        r = r - 1;
    mix((unsigned int)r);
    return r;
}
int main(void) {
    int v0 = 11;
    for (int i0 = 0; i0 < 6; i0++) {
        v0 = v0 ^ f2(f0((f1((11 & -17), (7 / 8)) << 3), 3), (f2(4, (v0 >> 2)) * (-8 % 2)));
        if (g1[(unsigned int)(((f1(4, 9) < i0) < f0(g2[(unsigned int)(14) % 6u], f0(2, -19)))) % 5u] != ((v0 << 2) ^ g0[(unsigned int)((f1(3, 3) == (-7 >= 2))) % 2u])) {
            v0 ^= (g1[(unsigned int)((-8 | f1(0, 17))) % 5u] > f1(-7, i0));
            mix(3u);
        }
        unsigned int v1 = 14u;
    }
    {
        int w1 = 4;
        while (w1 > 0) {
            g1[(unsigned int)((2 & f0((19 + 18), g2[(unsigned int)(-2) % 6u]))) % 5u] = (v0 + v0);
            v0 = v0 ^ f1(f1((((1 + -7) ^ f2(19, 18)) << 7), g2[(unsigned int)(((-4 / 4) != (-19 == -10))) % 6u]), 6);
            if ((f0(v0, w1) < ((f1(4, -14) << 5) >> 1)) > 18) {
                int a0[2] = {9, -8};
            } else {
                v0 = g2[(unsigned int)(v0) % 6u];
                mix((unsigned int)(v0));
            }
            w1 = w1 - 1;
        }
    }
    for (int i2 = 0; i2 < 6; i2++) {
        g1[(unsigned int)(14) % 5u] = f1((((9 ^ 10) % 6) ^ v0), g0[(unsigned int)(v0) % 2u]);
    }
    {
        int w3 = 2;
        while (w3 > 0) {
            for (int i4 = 0; i4 < 2; i4++) {
                v0 -= (f2((17 | (1 > -4)), f0(i4, -6)) << 2);
            }
            w3 = w3 - 1;
        }
    }
    v0 += v0;
    for (int i5 = 0; i5 < 3; i5++) {
        if (f1(f0(g2[(unsigned int)((10 > -19)) % 6u], v0), -19) > v0) {
            mix(5u);
        }
        for (int i6 = 0; i6 < 2; i6++) {
            mix(5u);
            int v2 = (((f1(14, -7) + g1[(unsigned int)(19) % 5u]) > 19) == (12 >= (f0(17, 0) >> 0)));
        }
    }
    v0 = v0 ^ f2(v0, v0);
    v0 -= (g2[(unsigned int)(0) % 6u] + 18);
    printf("%u %d\n", acc, v0);
    return (int)(acc % 126);
}
