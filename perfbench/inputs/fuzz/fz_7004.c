static unsigned int acc = 1;
static void mix(unsigned int v) { acc = acc * 31 + v; }
int g0[4] = {-4, -6};
int g1[2] = {0, 7};
int g2[6] = {-4, -6};
static int f0(int a, int b) {
    int r = a ^ (b + 9);
    if (r == -1)
        r = r | 7;
    r = r + 3;
    mix((unsigned int)r);
    return r;
}
int main(void) {
    int v0 = 11;
    mix((unsigned int)((g0[(unsigned int)(-19) % 4u] >> 7)));
    int a0[6] = {-2, 2};
    int *fzp = malloc(sizeof(int) * 4);
    fzp[1] = 8;
    free(fzp + 1);
    {
        int w0 = 2;
        while (w0 > 0) {
            if (g1[(unsigned int)(w0) % 2u] > -1) {
                mix(3u);
                v0 += 15;
            } else {
                g1[(unsigned int)((w0 % 3)) % 2u] = (((-1 != g2[(unsigned int)(-3) % 6u]) << 5) % 3);
                v0 = v0 ^ f0((-17 >> 3), 14);
            }
            w0 = w0 - 1;
        }
    }
    int v1 = v0;
    mix((unsigned int)(((v1 > (v1 >> 3)) >> 5)));
    v1 ^= f0(((f0(-13, 18) <= 7) != v1), g0[(unsigned int)(v1) % 4u]);
    {
        int w1 = 2;
        while (w1 > 0) {
            int v2 = a0[(unsigned int)(((a0[(unsigned int)(8) % 6u] / 4) > (a0[(unsigned int)(11) % 6u] < 6))) % 6u];
            for (int i2 = 0; i2 < 5; i2++) {
                mix(9u);
            }
            {
                int w3 = 2;
                while (w3 > 0) {
                    mix((unsigned int)(g2[(unsigned int)(a0[(unsigned int)(6) % 6u]) % 6u]));
                    w3 = w3 - 1;
                }
            }
            w1 = w1 - 1;
        }
    }
    v0 = v0 ^ f0(((((-1 - -7) << 6) % 7) / 5), f0((-6 < (a0[(unsigned int)(9) % 6u] << 0)), f0((v1 - (5 >> 7)), (v1 < g1[(unsigned int)(16) % 2u]))));
    mix((unsigned int)(f0(7, -16)));
    printf("%u %d\n", acc, v0);
    return (int)(acc % 126);
}
