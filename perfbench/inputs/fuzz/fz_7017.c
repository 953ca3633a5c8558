static unsigned int acc = 1;
static void mix(unsigned int v) { acc = acc * 31 + v; }
int g0[3] = {4, -9};
int g1[4] = {7, -1};
int g2[4] = {0, 4};
static int f0(int a, int b) {
    int r = a ^ (b * 1);
    r = r + 5;
    mix((unsigned int)r);
    return r;
}
static int f1(int a, int b) {
    int r = a * (b - 4);
    r = r ^ f0(r, -4);
    mix((unsigned int)r);
    return r;
}
static int f2(int a, int b) {
    int r = a ^ (b * 6);
    if (r <= 2)
        r = r * 4;
    mix((unsigned int)r);
    return r;
}
int main(void) {
    int v0 = 11;
    unsigned int v1 = 10u;
    int v2 = -18;
    if (((v2 >> 2) / 1) != ((((-5 >= 1) < g2[(unsigned int)(-9) % 4u]) != (f2(-16, -13) / 8)) % 9)) {
        g2[(unsigned int)(f1(v2, f2(f0(-4, 1), g2[(unsigned int)(4) % 4u]))) % 4u] = (-1 + ((-11 << 2) > f0(5, v2)));
        v2 ^= v2;
    }
    int v3 = (12 >> 3);
    for (int i0 = 0; i0 < 1; i0++) {
        mix((unsigned int)(((f1(f0(-1, 20), (4 >> 3)) >= ((-4 >= -15) ^ v0)) != f2(g1[(unsigned int)(-1) % 4u], f1((-19 << 7), g1[(unsigned int)(-14) % 4u])))));
    }
    g0[(unsigned int)((-15 >> 4)) % 3u] = (v0 >> 1);
    printf("%u %d\n", acc, v0);
    return (int)(acc % 126);
}
