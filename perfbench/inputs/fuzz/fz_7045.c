static unsigned int acc = 1;
static void mix(unsigned int v) { acc = acc * 31 + v; }
int g0[6] = {3, -9};
int g1[5] = {1, 4};
static int f0(int a, int b) {
    int r = a * (b + 6);
    r = r + 4;
    mix((unsigned int)r);
    return r;
}
static int f1(int a, int b) {
    int r = a ^ (b ^ 2);
    r = r ^ f0(r, -5);
    mix((unsigned int)r);
    return r;
}
int main(void) {
    int v0 = 11;
    v0 ^= g0[(unsigned int)(g0[(unsigned int)((5 >= (-5 >> 3))) % 6u]) % 6u];
    for (int i0 = 0; i0 < 3; i0++) {
        int a0[6] = {-1, 1};
        {
            int w1 = 2;
            while (w1 > 0) {
                int v1 = (((f0(-3, -10) % 6) >> 1) / 4);
                w1 = w1 - 1;
            }
        }
    }
    if (((f1(g0[(unsigned int)(-12) % 6u], g1[(unsigned int)(-16) % 5u]) ^ g0[(unsigned int)(-19) % 6u]) / 2) > (((g0[(unsigned int)(-13) % 6u] > g0[(unsigned int)(6) % 6u]) ^ g1[(unsigned int)(f1(-17, -14)) % 5u]) >= ((f1(1, -17) & v0) << 6))) {
        int a1[2] = {6, -1};
        {
            int w2 = 5;
            while (w2 > 0) {
                mix(9u);
                w2 = w2 - 1;
            }
        }
        v0 = v0 ^ f1((v0 << 4), (v0 != ((v0 < (20 >> 1)) + (v0 - (17 / 3)))));
    } else {
        g1[(unsigned int)(f0(((15 & -7) * (12 & -1)), ((-3 >= -19) % 7))) % 5u] = ((1 % 6) >= f1(f0((13 % 7), f0(1, -11)), g1[(unsigned int)((11 % 8)) % 5u]));
    }
    mix((unsigned int)(g1[(unsigned int)(f0(g0[(unsigned int)((16 << 5)) % 6u], (-3 == g0[(unsigned int)(12) % 6u]))) % 5u]));
    int *fzd = malloc(sizeof(int) * 3);
    fzd[0] = 1;
    mix((unsigned int)fzd[0]);
    free(fzd);
    free(fzd);
    printf("%u %d\n", acc, v0);
    return (int)(acc % 126);
}
