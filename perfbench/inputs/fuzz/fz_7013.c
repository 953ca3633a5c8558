static unsigned int acc = 1;
static void mix(unsigned int v) { acc = acc * 31 + v; }
int g0[2] = {4, -2};
int g1[2] = {2, -3};
int g2[4] = {-6, 3};
static int f0(int a, int b) {
    int r = a + (b & 1);
    if (r > -2)
        r = r ^ 6;
    mix((unsigned int)r);
    return r;
}
static int f1(int a, int b) {
    int r = a ^ (b - 3);
    mix((unsigned int)r);
    return r;
}
static int f2(int a, int b) {
    int r = a ^ (b * 5);
    mix((unsigned int)r);
    return r;
}
static void fz_poke(int *p, int i) { p[i] = 42; }
int main(void) {
    int v0 = 11;
    int fzs[4] = {8, 2};
    fz_poke(fzs, -1);
    mix((unsigned int)(4));
    int a0[6] = {-5, 2};
    for (int i0 = 0; i0 < 4; i0++) {
        int a1[2] = {-7, 5};
        mix((unsigned int)((((g2[(unsigned int)(-9) % 4u] << 7) >> 5) <= (((2 & 5) / 6) >> 6))));
        v0 = ((-4 >= (g1[(unsigned int)(-20) % 2u] << 4)) / 4);
    }
    v0 = v0 ^ f0(((((-18 > 13) % 1) & g0[(unsigned int)(10) % 2u]) % 9), a0[(unsigned int)(v0) % 6u]);
    mix((unsigned int)(f1(11, v0)));
    mix((unsigned int)(a0[(unsigned int)((13 << 0)) % 6u]));
    v0 = v0 ^ f2(((-3 | (8 < -9)) / 3), v0);
    printf("%u %d\n", acc, v0);
    return (int)(acc % 126);
}
