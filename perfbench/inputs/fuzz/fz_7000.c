static unsigned int acc = 1;
static void mix(unsigned int v) { acc = acc * 31 + v; }
int g0[2] = {-4, 7};
static int f0(int a, int b) {
    int r = a * (b | 6);
    mix((unsigned int)r);
    return r;
}
static int f1(int a, int b) {
    int r = a | (b | 9);
    r = r ^ f0(r, -2);
    mix((unsigned int)r);
    return r;
}
static int f2(int a, int b) {
    int r = a * (b & 5);
    if (r < 0)
        r = r ^ 5;
    mix((unsigned int)r);
    return r;
}
int main(void) {
    int v0 = 11;
    {
        int w0 = 1;
        while (w0 > 0) {
            g0[(unsigned int)((-18 - (12 ^ g0[(unsigned int)(13) % 2u]))) % 2u] = v0;
            w0 = w0 - 1;
        }
    }
    int *fzp = malloc(sizeof(int) * 4);
    fzp[1] = 2;
    free(fzp + 1);
    {
        int w1 = 3;
        while (w1 > 0) {
            for (int i2 = 0; i2 < 3; i2++) {
                mix(5u);
                mix(3u);
                v0 += g0[(unsigned int)(((f1(-20, 15) >> 1) >> 4)) % 2u];
            }
            w1 = w1 - 1;
        }
    }
    int a0[2] = {-6, 2};
    g0[(unsigned int)(a0[(unsigned int)(-16) % 2u]) % 2u] = ((f2((9 / 3), v0) << 4) / 8);
    v0 = a0[(unsigned int)(((0 % 1) != ((0 / 8) | (10 != 1)))) % 2u];
    int a1[3] = {-7, -6};
    printf("%u %d\n", acc, v0);
    return (int)(acc % 126);
}
