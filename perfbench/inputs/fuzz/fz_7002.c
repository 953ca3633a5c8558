static unsigned int acc = 1;
static void mix(unsigned int v) { acc = acc * 31 + v; }
int g0[3] = {0, 3};
int g1[2] = {-8, -2};
static int f0(int a, int b) {
    int r = a & (b - 8);
    mix((unsigned int)r);
    return r;
}
static int f1(int a, int b) {
    int r = a | (b ^ 4);
    r = r ^ f0(r, -1);
    mix((unsigned int)r);
    return r;
}
static int f2(int a, int b) {
    int r = a * (b + 1);
    if (r <= -1)
        r = r | 1;
    r = r ^ f0(r, 2);
    mix((unsigned int)r);
    return r;
}
int main(void) {
    int v0 = 11;
    if (((f2((9 < 16), (-19 >> 0)) & (19 / 3)) << 6) >= f1((((1 >= 4) % 8) << 3), (g0[(unsigned int)(19) % 3u] >> 5))) {
        {
            int w0 = 1;
            while (w0 > 0) {
                v0 = v0 ^ f2(-2, f1(v0, w0));
                v0 = g1[(unsigned int)(g1[(unsigned int)(g1[(unsigned int)((-4 <= -8)) % 2u]) % 2u]) % 2u];
                g1[(unsigned int)(-4) % 2u] = (0 - g0[(unsigned int)(f0(v0, (6 | 3))) % 3u]);
                w0 = w0 - 1;
            }
        }
        int v1 = ((f2(v0, -3) >> 6) == v0);
        mix((unsigned int)(((7 | ((10 ^ 10) >> 1)) << 6)));
    } else {
        {
            int w1 = 5;
            while (w1 > 0) {
                mix(3u);
                mix(5u);
                w1 = w1 - 1;
            }
        }
        v0 ^= v0;
        int v2 = f0(f0((19 / 1), (v0 + (13 >> 1))), (15 >> 3));
    }
    v0 += (((f0(16, 7) < (3 ^ -19)) < f1((14 - 1), (-12 << 6))) % 5);
    if ((v0 | v0) != (-3 > g1[(unsigned int)(f1(v0, -12)) % 2u])) {
        v0 = v0 ^ f1(-15, (((f1(6, -6) >= (-11 / 4)) / 7) < (v0 >> 2)));
    } else {
        g1[(unsigned int)((((0 + -10) % 3) > ((-16 % 7) / 2))) % 2u] = (v0 + ((v0 > g1[(unsigned int)(8) % 2u]) % 7));
        v0 = v0 ^ f0(((((-14 % 6) / 7) / 7) ^ f2(v0, ((7 / 9) <= (-6 < 20)))), ((v0 / 8) & -11));
    }
    g0[(unsigned int)((g0[(unsigned int)((-5 % 4)) % 3u] + ((-13 / 2) / 6))) % 3u] = (f1(5, ((-9 > 7) * (5 - 18))) % 6);
    {
        int w2 = 4;
        while (w2 > 0) {
            int a0[3] = {-9, -8};
            v0 = v0 ^ f1(f0((1 % 7), (((-17 << 5) > (7 >= -3)) << 6)), f2((v0 << 5), -3));
            w2 = w2 - 1;
        }
    }
    mix((unsigned int)(f2(f1(((-20 & 17) >> 7), g1[(unsigned int)((-11 << 5)) % 2u]), ((g0[(unsigned int)(3) % 3u] >> 3) ^ (v0 != (-11 + -17))))));
    printf("%u %d\n", acc, v0);
    return (int)(acc % 126);
}
