static unsigned int acc = 1;
static void mix(unsigned int v) { acc = acc * 31 + v; }
int g0[3] = {2, 4};
int g1[6] = {-5, -6};
static int f0(int a, int b) {
    int r = a | (b * 7);
    mix((unsigned int)r);
    return r;
}
static int f1(int a, int b) {
    int r = a ^ (b ^ 2);
    if (r < -4)
        r = r ^ 1;
    mix((unsigned int)r);
    return r;
}
static int f2(int a, int b) {
    int r = a | (b - 8);
    mix((unsigned int)r);
    return r;
}
int main(void) {
    int v0 = 11;
    mix((unsigned int)(((v0 == ((8 >> 4) >> 2)) != g0[(unsigned int)(((20 >> 6) * (0 >= -16))) % 3u])));
    int v1 = (g0[(unsigned int)(-12) % 3u] > ((2 % 8) << 6));
    for (int i0 = 0; i0 < 5; i0++) {
        for (int i1 = 0; i1 < 3; i1++) {
            v0 = v0 ^ f2(((f2((-9 != -9), (-17 >= 20)) < i1) << 4), g0[(unsigned int)(((19 / 8) >> 1)) % 3u]);
            mix((unsigned int)(((((-14 << 3) / 2) ^ 18) + i0)));
        }
        if ((14 % 6) == ((v0 <= g0[(unsigned int)(f1(12, 17)) % 3u]) % 6)) {
            v1 = -5;
            v1 = v0;
        }
        v1 -= 0;
    }
    int a0[2] = {1, 2};
    a0[(unsigned int)((v0 >> 7)) % 2u] = (a0[(unsigned int)(-10) % 2u] - v1);
    mix((unsigned int)((((a0[(unsigned int)(-7) % 2u] >> 5) | ((-7 / 9) % 6)) << 5)));
    int *fzd = malloc(sizeof(int) * 4);
    fzd[0] = 8;
    mix((unsigned int)fzd[0]);
    free(fzd);
    free(fzd);
    printf("%u %d\n", acc, v0);
    return (int)(acc % 126);
}
